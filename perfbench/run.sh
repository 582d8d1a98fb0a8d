#!/usr/bin/env bash
# Build the server and the benchmark from this checkout's sources, then
# run one benchmark invocation:
#
#   bash perfbench/run.sh --workload oltp_write --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: $root holds no sqlledger sources (dune-project, lib/, bin/)" >&2
  exit 2
fi
dune build --root . ./bin/sqlledger.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --sqlledger ./_build/default/bin/sqlledger.exe "$@"
