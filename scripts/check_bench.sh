#!/usr/bin/env bash
# Bench regression gate: compare a fresh BENCH_pcc.json against the
# committed baseline and fail if aggregate event throughput regressed
# beyond the budget.
#
#   check_bench.sh BASELINE.json FRESH.json [MAX_REGRESSION] [MAX_REGRESSION_EACH]
#
# MAX_REGRESSION is a fraction (default 0.30 = fail when the fresh run
# sustains < 70% of the baseline's events/sec). Experiments are joined
# by name, so a baseline regenerated with a different --only set still
# gates on whatever overlaps; the aggregate pools events and wall time
# across the joined set so one tiny, noisy experiment cannot fail the
# gate on its own. On top of the aggregate, each individual experiment
# is gated against the looser MAX_REGRESSION_EACH budget (default 0.50),
# so a single experiment cratering cannot hide behind the pooled mean —
# the slack exists because a lone experiment's events/sec is noisier
# than the pool. A markdown table goes to $GITHUB_STEP_SUMMARY when
# that is set. Experiments reporting zero events on either side (e.g. a
# crashed run, or a computation the event counter cannot see) are listed
# but excluded from the aggregate and the per-experiment gate, since
# they contribute wall time with no events and would skew the pooled
# events/sec arbitrarily.
#
# When the fresh run carries a "controllers" section (bench
# --controllers), its gate checks that each controller's control plane
# actually ran: every controller must complete monitor intervals and
# execute events, every gradient-ascent controller (vivace / proteus
# family) must record gradient steps, and the Proteus scavenger must
# record utility-class switches (its start-up overshoot always forces
# at least one probe->yield->probe round trip).
#
# Last, the behaviour lock: scripts/check_digests.sh reruns every
# registry experiment at a small scale and fails if any stdout digest
# moved from scripts/exp_digests.txt.
set -euo pipefail

usage="usage: check_bench.sh BASELINE.json FRESH.json [MAX_REGRESSION] [MAX_REGRESSION_EACH]"
baseline=${1:?$usage}
fresh=${2:?$usage}
max_reg=${3:-0.30}
max_reg_each=${4:-0.50}

for f in "$baseline" "$fresh"; do
  if [ ! -f "$f" ]; then
    echo "check_bench: $f not found" >&2
    exit 1
  fi
done

rows=$(jq -r --slurpfile b "$baseline" '
  ($b[0].experiments | map({(.name): .}) | add) as $base
  | [ .experiments[] | select($base[.name] != null) ][]
  | [ .name,
      $base[.name].events_per_sec,
      .events_per_sec,
      (if $base[.name].events_per_sec > 0
       then .events_per_sec / $base[.name].events_per_sec
       else 1 end) ]
  | @tsv' "$fresh")

if [ -z "$rows" ]; then
  echo "check_bench: no common experiments between $baseline and $fresh" >&2
  exit 1
fi

agg=$(jq -r --slurpfile b "$baseline" '
  ($b[0].experiments | map({(.name): .}) | add) as $base
  | [ .experiments[]
      | select($base[.name] != null
               and $base[.name].events > 0 and .events > 0) ] as $common
  | if ($common | length) == 0 then "0 0 1"
    else
      (([ $common[] | $base[.name].events ] | add)
       / ([ $common[] | $base[.name].wall_s ] | add)) as $be
      | (([ $common[] | .events ] | add)
         / ([ $common[] | .wall_s ] | add)) as $fe
      | "\($be) \($fe) \($fe / $be)"
    end' "$fresh")
read -r base_eps fresh_eps ratio <<<"$agg"

skipped=$(jq -r --slurpfile b "$baseline" '
  ($b[0].experiments | map({(.name): .}) | add) as $base
  | [ .experiments[]
      | select($base[.name] != null
               and ($base[.name].events == 0 or .events == 0))
      | .name ]
  | join(", ")' "$fresh")

threshold=$(awk -v m="$max_reg" 'BEGIN { printf "%.4f", 1 - m }')
ok=$(awk -v r="$ratio" -v t="$threshold" 'BEGIN { print (r >= t) ? "yes" : "no" }')

# Per-experiment gate: every joined experiment with events on both
# sides must individually stay within the (looser) per-experiment
# budget.
each_threshold=$(awk -v m="$max_reg_each" 'BEGIN { printf "%.4f", 1 - m }')
slow=$(jq -r --slurpfile b "$baseline" --argjson t "$each_threshold" '
  ($b[0].experiments | map({(.name): .}) | add) as $base
  | [ .experiments[]
      | select($base[.name] != null
               and $base[.name].events > 0 and .events > 0
               and $base[.name].events_per_sec > 0
               and (.events_per_sec / $base[.name].events_per_sec) < $t)
      | .name ]
  | join(", ")' "$fresh")

# Events/sec only compare across one host: name both files' hosts
# (bench/main.exe records them; older files have none).
host_of() {
  jq -r 'if .host then "nproc=\(.host.nproc), OCaml \(.host.ocaml)"
         else "not recorded" end' "$1"
}

{
  echo "## Bench regression gate"
  echo ""
  echo "Baseline host: $(host_of "$baseline"). Fresh host: $(host_of "$fresh")."
  echo ""
  echo "| experiment | baseline ev/s | fresh ev/s | ratio |"
  echo "|---|---:|---:|---:|"
  while IFS=$'\t' read -r name beps feps r; do
    printf '| %s | %.0f | %.0f | %.2f |\n' "$name" "$beps" "$feps" "$r"
  done <<<"$rows"
  printf '| **aggregate** | %.0f | %.0f | **%.2f** |\n' \
    "$base_eps" "$fresh_eps" "$ratio"
  echo ""
  if [ -n "$skipped" ]; then
    echo "Excluded from the aggregate (zero events): $skipped"
    echo ""
  fi
  if [ "$ok" = yes ]; then
    echo "Aggregate events/sec ratio $ratio ≥ $threshold: within budget."
  else
    echo "**Aggregate events/sec ratio $ratio < $threshold: regression beyond the ${max_reg} budget.**"
  fi
  if [ -n "$slow" ]; then
    echo ""
    echo "**Per-experiment regression beyond the ${max_reg_each} budget (ratio < $each_threshold): $slow**"
  fi
} | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"

# --- Controller-family gate (fresh file only) ----------------------
ctrl_ok=yes
if jq -e '.controllers' "$fresh" >/dev/null 2>&1; then
  dead=$(jq -r \
    '[.controllers[] | select(.events == 0 or .mis == 0) | .name] | join(", ")' \
    "$fresh")
  no_grad=$(jq -r \
    '[.controllers[]
      | select((.name | test("vivace|proteus")) and .gradient_steps == 0)
      | .name] | join(", ")' "$fresh")
  no_switch=$(jq -r \
    '[.controllers[]
      | select((.name | test("scavenger")) and .utility_switches == 0)
      | .name] | join(", ")' "$fresh")
  [ -n "$dead" ] && ctrl_ok=no
  [ -n "$no_grad" ] && ctrl_ok=no
  [ -n "$no_switch" ] && ctrl_ok=no
  {
    echo ""
    echo "## Controller-family gate"
    echo ""
    echo "| controller | goodput Mbps | MIs | mean utility | gradient steps | switches |"
    echo "|---|---:|---:|---:|---:|---:|"
    jq -r '.controllers[]
      | "| \(.name) | \(.goodput_mbps) | \(.mis) | \(.mean_utility) | \(.gradient_steps) | \(.utility_switches) |"' \
      "$fresh"
    echo ""
    if [ -n "$dead" ]; then
      echo "**Controllers with no monitor intervals or no events: $dead.**"
    fi
    if [ -n "$no_grad" ]; then
      echo "**Gradient controllers with zero gradient steps: $no_grad.**"
    fi
    if [ -n "$no_switch" ]; then
      echo "**Scavengers with zero utility-class switches: $no_switch.**"
    fi
    if [ "$ctrl_ok" = yes ]; then
      echo "All controllers decided: MIs, gradient steps and class switches present."
    fi
  } | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
fi

# --- Behaviour lock --------------------------------------------------
digests_ok=yes
"$(dirname "$0")/check_digests.sh" || digests_ok=no

[ "$ok" = yes ] && [ -z "$slow" ] && [ "$ctrl_ok" = yes ] && [ "$digests_ok" = yes ]
