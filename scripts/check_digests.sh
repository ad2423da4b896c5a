#!/usr/bin/env bash
# Behaviour lock: run every registry experiment at a small scale and
# compare the md5 of its stdout against the committed digests.
#
#   scripts/check_digests.sh
#
# Each line of scripts/exp_digests.txt is "NAME MD5", where MD5 is the
# digest of `pcc_sim exp NAME --scale 0.05 --seed 42 --jobs 2`. The
# Runner determinism contract makes that output independent of --jobs,
# so any difference is a behaviour change. The regenerated lines are
# left in _build/exp_digests.txt: a change that is meant to alter
# output copies that file over scripts/exp_digests.txt and says why in
# its commit.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
digests="$root/scripts/exp_digests.txt"
cd "$root"

dune build bin/pcc_sim.exe
sim="$root/_build/default/bin/pcc_sim.exe"
fresh="$root/_build/exp_digests.txt"

: >"$fresh"
for name in $("$sim" exp --list | awk '{ print $1 }'); do
  sum=$("$sim" exp "$name" --scale 0.05 --seed 42 --jobs 2 | md5sum | awk '{ print $1 }')
  echo "$name $sum" >>"$fresh"
done

if diff -u "$digests" "$fresh"; then
  echo "check_digests: all $(wc -l <"$fresh") experiment digests match"
else
  echo "check_digests: experiment output differs from $digests" >&2
  echo "check_digests: regenerated lines are in $fresh" >&2
  exit 1
fi
