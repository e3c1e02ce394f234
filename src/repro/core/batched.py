"""An empty module, kept importable by name.

Algorithm 2's Frank–Wolfe loop lives in
:meth:`repro.core.private_lasso.HeavyTailedPrivateLasso.fit`, the one
path every trial runs through; the stacked-trials ``batch_fit_lasso``
that used to live here is gone.  perfbench's layer table still imports
this module by name when it resolves its ``solver`` targets, and
:mod:`repro.core` loads it so that doing so binds nothing new; delete
the module, and that import, once perfbench no longer names it.
"""
