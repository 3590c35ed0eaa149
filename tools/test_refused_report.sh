#!/bin/sh
# A --metrics-out report the filesystem refuses part-way must fail the run
# (exit 1, "error: run report write failed") and keep the previous report
# byte for byte.  Usage: test_refused_report.sh <tpascd_train> <work dir>
set -u
train=$1
dir=$2
rm -rf "$dir" && mkdir -p "$dir" && cd "$dir" || exit 2
run() {
  "$train" --generate webspam --examples 256 --features 512 --solver seq \
    --target-gap 0 --metrics-out report.jsonl "$@"
}
run --epochs 2 > /dev/null || { echo "first run failed"; exit 1; }
cp report.jsonl previous.jsonl
# 30 epochs write a report of several KiB, past a 1-block (1024-byte) file
# size limit.  SIGXFSZ is ignored so the write fails with EFBIG instead of
# killing the tool; stderr goes to a pipe, which the limit does not cover.
errors=$( (ulimit -f 1; trap '' XFSZ; run --epochs 30 2>&1 > /dev/null) )
status=$?
[ "$status" -eq 1 ] || { echo "exit $status, expected 1"; exit 1; }
echo "$errors" | grep -q "error: run report write failed" ||
  { echo "missing error line: $errors"; exit 1; }
cmp -s report.jsonl previous.jsonl || { echo "previous report changed"; exit 1; }
[ ! -e report.jsonl.tmp ] || { echo "left report.jsonl.tmp"; exit 1; }
echo "refused report kept the previous one"
