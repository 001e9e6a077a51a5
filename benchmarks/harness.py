"""Benchmark-suite shim: the harness lives in :mod:`repro.experiments`."""

from repro.experiments import (FULL, METHODS, N_REPLICATIONS, POST_EPOCHS,
                               TOP_K, WALL_MINUTES, allocation, fig4_runs,
                               fig5_runs, fig6_runs, fig9_runs, fig11_runs,
                               fig13_runs, post_train_top, print_posttrain,
                               print_trajectories, print_utilizations,
                               run_cached, space_for, surrogate_for,
                               working_problem)

__all__ = ["FULL", "METHODS", "N_REPLICATIONS", "POST_EPOCHS", "TOP_K",
           "WALL_MINUTES", "allocation", "fig4_runs", "fig5_runs",
           "fig6_runs", "fig9_runs", "fig11_runs", "fig13_runs",
           "post_train_top", "print_posttrain", "print_trajectories",
           "print_utilizations", "run_cached", "space_for",
           "surrogate_for", "working_problem"]
