"""Out-of-process service benchmark for ``python -m repro serve``.

Run ``python3 perfbench/run.py --workload feed --seed 1``; see
``perfbench/README.md``.
"""
