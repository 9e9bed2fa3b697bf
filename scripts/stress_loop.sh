#!/usr/bin/env bash
# Run a test binary many times, several copies at once, and count how the
# runs end: pass (exit 0), fail (any other exit) or hang (still running at
# the timeout, then killed). Rare races and hangs that one run hides show up
# as counts that two trees can be compared on.
#
# Usage: scripts/stress_loop.sh <binary> <runs> <parallel> <timeout_s>
#   <runs>       runs per loop
#   <parallel>   loops running at the same time (runs * parallel in total)
#   <timeout_s>  a run still going after this many seconds is a hang
#
# Prints one line per failed or hung run (the gtest case that failed, or the
# one still running when the run was killed, and the run's log), then
# "pass=N fail=N hang=N". Logs of passing runs are deleted; the others stay
# in the directory the last line names. Exits 1 if any run failed or hung.
set -euo pipefail

if [[ $# -ne 4 ]]; then
  sed -n '7,10p' "$0" >&2
  exit 2
fi
binary=$1
runs=$2
parallel=$3
timeout_s=$4
log_dir=$(mktemp -d "${TMPDIR:-/tmp}/stress_loop.XXXXXX")

loop() {
  local id=$1 i rc out
  for ((i = 1; i <= runs; ++i)); do
    out="${log_dir}/run-${id}-${i}.log"
    rc=0
    timeout -k 5 "${timeout_s}" "${binary}" > "${out}" 2>&1 || rc=$?
    case ${rc} in
      0) rm -f "${out}"; echo pass ;;
      124 | 137) echo "hang ${out}" ;;
      *) echo "fail ${out}" ;;
    esac
  done > "${log_dir}/loop-${id}.result"
}

for ((p = 1; p <= parallel; ++p)); do
  loop "${p}" &
done
wait

pass=0
fail=0
hang=0
while read -r outcome log; do
  case ${outcome} in
    pass) pass=$((pass + 1)); continue ;;
    fail)
      fail=$((fail + 1))
      test=$(grep -m1 '^\[  FAILED  \] ' "${log}" | sed 's/^\[  FAILED  \] //; s/ (.*//' || true)
      ;;
    hang)
      hang=$((hang + 1))
      test=$(grep '^\[ RUN      \] ' "${log}" | tail -n1 | sed 's/^\[ RUN      \] //' || true)
      ;;
  esac
  echo "${outcome}: ${test:-?} (${log})"
done < <(cat "${log_dir}"/loop-*.result)

echo "pass=${pass} fail=${fail} hang=${hang}"
echo "logs: ${log_dir}"
[[ ${fail} -eq 0 && ${hang} -eq 0 ]]
