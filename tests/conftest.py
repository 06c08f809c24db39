# cavex pins the BLAS threads only if it is imported before numpy, so the
# tests run with one BLAS thread, as the command line and the benchmark do
import cavex  # noqa: F401
