#!/usr/bin/env bash
# Paired benchmark runs of two commits: checks out a parent and a change
# under a scratch directory, runs `bench/run.sh` in each, alternating
# (the parent first on odd pairs, the change first on even ones, both on
# the pair's seed), and prints per end-to-end metric of BENCHMARK.json
# the parent's median [q1–q3], the change's median, how many pairs the
# change was ahead (n/N), pass or fail against the metric's bound, and
# the failed operations of every run. Each invocation appends one JSON
# line to BENCH_pairs.jsonl at the repository root.
#
#   scripts/pair.sh [options] SCRATCH_DIR
#     -p REV        parent commit (default HEAD~1)
#     -c REV        change commit (default HEAD)
#     -w W[,W...]   workloads (default: every workload of BENCHMARK.json)
#     -n N          pairs per workload (default 5)
#     -s SECONDS    measured seconds per run (default BENCHMARK.json's run_seconds)
#     -S SEED       seed of the first pair; pair i runs seed SEED+i-1 (default 1)
#
# The checkouts are `git archive` exports named by commit, so they leave
# no state in the repository and a second invocation on the same commits
# reuses them; both share one Go build cache under SCRATCH_DIR.
set -euo pipefail

usage() { sed -n '11,17p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }

parent=HEAD~1 change=HEAD workloads= pairs=5 seconds= seed=1
while getopts p:c:w:n:s:S: opt; do
	case $opt in
	p) parent=$OPTARG ;;
	c) change=$OPTARG ;;
	w) workloads=$OPTARG ;;
	n) pairs=$OPTARG ;;
	s) seconds=$OPTARG ;;
	S) seed=$OPTARG ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 1 ] || usage
command -v jq >/dev/null || { echo "pair.sh: needs jq" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
bench=$root/BENCHMARK.json
mkdir -p "$1"
scratch=$(cd "$1" && pwd)
psha=$(git -C "$root" rev-parse --verify "$parent^{commit}")
csha=$(git -C "$root" rev-parse --verify "$change^{commit}")
[ -n "$seconds" ] || seconds=$(jq -r .run_seconds "$bench")
[ -n "$workloads" ] || workloads=$(jq -r '[.workloads[].name] | join(",")' "$bench")

# checkout SHA: a clean export of the commit, sharing the build cache
checkout() {
	local dir=$scratch/tree-${1:0:12}
	if [ ! -d "$dir" ]; then
		mkdir -p "$dir.tmp"
		git -C "$root" archive "$1" | tar -x -C "$dir.tmp"
		mkdir -p "$dir.tmp/.bench_build" "$scratch/go-cache"
		ln -s "$scratch/go-cache" "$dir.tmp/.bench_build/go-cache"
		mv "$dir.tmp" "$dir"
	fi
	echo "$dir"
}
ptree=$(checkout "$psha")
ctree=$(checkout "$csha")

# run TREE WORKLOAD SEED OUT: one benchmark run; its last line is the result
run() {
	local log=$4.log
	if ! (cd "$1" && bash bench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) >"$log" 2>&1; then
		echo "pair.sh: $2 seed $3 failed in $1 (see $log)" >&2
	fi
	tail -n 1 "$log" | jq -c 'select(type == "object" and has("metrics"))' >"$4" 2>/dev/null || true
	[ -s "$4" ] || echo '{"correct": false, "failed": null, "metrics": {}}' >"$4"
}

for w in ${workloads//,/ }; do
	out=$scratch/runs-$(date +%s)-$w
	mkdir -p "$out"
	for ((i = 1; i <= pairs; i++)); do
		s=$((seed + i - 1))
		if ((i % 2 == 1)); then
			run "$ptree" "$w" "$s" "$out/p$i.json"
			run "$ctree" "$w" "$s" "$out/c$i.json"
		else
			run "$ctree" "$w" "$s" "$out/c$i.json"
			run "$ptree" "$w" "$s" "$out/p$i.json"
		fi
		echo "pair.sh: $w pair $i/$pairs (seed $s) done" >&2
	done

	line=$(jq -nc \
		--slurpfile bench "$bench" \
		--slurpfile p <(cat "$out"/p*.json) \
		--slurpfile c <(cat "$out"/c*.json) \
		--arg workload "$w" --arg parent "$psha" --arg change "$csha" \
		--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--argjson seed "$seed" --argjson seconds "$seconds" '
		# quantile by linear interpolation over the sorted values
		def q($p): sort | if length == 0 then null
			else (((length - 1) * $p) | floor) as $i | (((length - 1) * $p) - $i) as $f
			| if $i + 1 < length then .[$i] * (1 - $f) + .[$i + 1] * $f else .[$i] end end;
		{date: $date, workload: $workload, parent: $parent, change: $change,
		 seed: $seed, pairs: ($p | length), seconds: $seconds,
		 failed: {parent: [$p[].failed], change: [$c[].failed]},
		 correct: {parent: [$p[].correct], change: [$c[].correct]},
		 metrics: [$bench[0].end_to_end[] as $m
			| [$p[].metrics[$m.name].value] as $pv | [$c[].metrics[$m.name].value] as $cv
			| ([range(0; [$pv, $cv] | map(length) | min)]
				| map(select($pv[.] != null and $cv[.] != null))) as $both
			| ($pv | map(select(. != null))) as $pn | ($cv | map(select(. != null))) as $cn
			| ($pn | q(0.5)) as $pm | ($cn | q(0.5)) as $cm
			| {name: $m.name, better: $m.better, bound: $m.bound,
			   parent: $pv, change: $cv,
			   parent_median: $pm, parent_q1: ($pn | q(0.25)), parent_q3: ($pn | q(0.75)),
			   change_median: $cm,
			   ahead: [$both[] | select(if $m.better == "lower" then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)] | length,
			   compared: ($both | length),
			   pass: ($pm != null and $cm != null and
				(if $m.better == "lower" then $cm <= $pm * (1 + $m.bound) else $cm >= $pm * (1 - $m.bound) end))}]}')
	echo "$line" >>"$root/BENCH_pairs.jsonl"

	echo "$line" | jq -r '
		def f: if . == null then "-" elif fabs >= 100 then "\(. * 10 | round / 10)" else "\(. * 10000 | round / 10000)" end;
		"\(.workload): parent \(.parent[:12]) vs change \(.change[:12]), \(.pairs) pairs, seeds \(.seed)–\(.seed + .pairs - 1), \(.seconds) s",
		(.metrics[] | "  \(.name): \(.parent_median | f) [\(.parent_q1 | f)–\(.parent_q3 | f)] → \(.change_median | f)  ahead \(.ahead)/\(.compared)  \(if .pass then "pass" else "FAIL" end) (bound \(.bound * 100 | round)%)"),
		"  failed operations per run: parent \(.failed.parent | map(tostring) | join(" ")), change \(.failed.change | map(tostring) | join(" "))"'
done
