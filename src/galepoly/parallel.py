"""An empty layer kept for the benchmark's tracer.

The deletion scans once fanned out to a process pool started per call;
measured, the pool never paid, so every scan is serial and this module
holds no code.  ``perfbench/tracing.py`` still looks up
``galepoly.parallel`` for each layer it traces; the module goes when the
tracer no longer needs it.
"""
