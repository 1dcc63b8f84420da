#!/bin/sh
# Build and run the end-to-end benchmark from the repository root (the
# directory holding BENCHMARK.json); arguments pass through to main.exe.
exec dune exec --root . --cache=disabled --display=quiet bench/e2e/main.exe -- "$@"
