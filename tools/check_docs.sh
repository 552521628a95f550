#!/usr/bin/env bash
# Docs-consistency check, run by CI.
#
# Keeps the entry-point docs honest against the tree:
#   1. every NESTSIM_* environment variable the code reads is documented in
#      README.md;
#   2. every src/<dir>/ named in DESIGN.md exists;
#   3. every top-level src/ subsystem has a row in DESIGN.md §2 and a line in
#      README.md's "What's in the box";
#   4. docs/OBSERVABILITY.md is linked from README.md and DESIGN.md;
#   5. every trace event name and counter key the observability layer emits
#      is documented in docs/OBSERVABILITY.md;
#   6. docs/SCENARIOS.md is linked from README.md and named in EXPERIMENTS.md;
#   7. every scenario file under scenarios/ is named in the docs, and every
#      scenario named in the docs exists;
#   8. every config-override key the scenario engine accepts is documented in
#      docs/SCENARIOS.md;
#   9. every invariant name the checker can emit is documented in
#      docs/TESTING.md, and docs/TESTING.md is linked from README.md;
#  10. docs/BENCHMARKS.md is linked from README.md, and every benchmark
#      record name the perf suite emits is documented there;
#  11. docs/CLUSTER.md is linked from README.md and docs/SCENARIOS.md, every
#      router name src/cluster/ registers is documented there, and so is
#      every cluster.* spec key the scenario parser accepts;
#  12. docs/MODEL.md is linked from README.md and DESIGN.md, and every
#      cache.*/nest_cache.* config key and cache counter name appears in both
#      docs/MODEL.md and docs/SCENARIOS.md (the counters additionally in
#      docs/OBSERVABILITY.md via rule 5b);
#  13. docs/FAULTS.md is linked from README.md and DESIGN.md, every
#      fault.*/power.*/nest_budget.* config key (plus `replicas`) the
#      scenario engine accepts is documented there, and so is every
#      resilience field the campaign JSONL sink can emit;
#  14. docs/PARALLEL.md is linked from README.md and DESIGN.md, every
#      parallel.* config key the scenario engine accepts is documented
#      there, and so are the huge-machine and rack preset names the PDES
#      layer ships (intel-8153-4s/8s, rack8/16/32);
#  15. docs/PREDICTION.md is linked from README.md and DESIGN.md, every
#      exported feature column and per-core suffix (the kFeatureColumns /
#      kPerCoreColumnSuffixes initializers in src/predict/features.h) is
#      documented there, and so is every predict.* config key the scenario
#      engine accepts.

set -u
cd "$(dirname "$0")/.."
fail=0

# 1. Environment variables.
for var in $(grep -rhoE 'getenv\("NESTSIM_[A-Z_]+"\)' src examples tools \
               | sed 's/getenv("//; s/")//' | sort -u); do
  if ! grep -q "$var" README.md; then
    echo "FAIL: $var is read by the code but not documented in README.md"
    fail=1
  fi
done

# 2. Directories DESIGN.md names must exist.
for dir in $(grep -ohE 'src/[a-z_]+/' DESIGN.md | sort -u); do
  if [ ! -d "$dir" ]; then
    echo "FAIL: DESIGN.md names $dir but the directory does not exist"
    fail=1
  fi
done

# 3. Every src/ subsystem is covered by both docs.
for dir in src/*/; do
  for doc in DESIGN.md README.md; do
    if ! grep -q "$dir" "$doc"; then
      echo "FAIL: $dir has no mention in $doc"
      fail=1
    fi
  done
done

# 4. The observability reference is reachable from the entry points.
for doc in README.md DESIGN.md; do
  if ! grep -q 'docs/OBSERVABILITY.md' "$doc"; then
    echo "FAIL: $doc does not link docs/OBSERVABILITY.md"
    fail=1
  fi
done

# 5a. Enum value names (placement paths, migration reasons, nest events) are
#     all documented. The name functions return quoted lowercase words.
for name in $(grep -ohE 'return "[a-z_]+"' src/kernel/task.h src/kernel/observer.h \
                | sed 's/return "//; s/"//' | sort -u); do
  if ! grep -q "\`$name\`" docs/OBSERVABILITY.md; then
    echo "FAIL: event/path name '$name' is emitted but not documented in docs/OBSERVABILITY.md"
    fail=1
  fi
done

# 5b. Counter JSON keys.
for key in $(grep -ohE 'AppendU64\(out, "[a-z_]+"' src/obs/sched_counters.cc \
               | sed 's/.*"\([a-z_]*\)"/\1/' | sort -u); do
  if ! grep -q "\`$key\`" docs/OBSERVABILITY.md; then
    echo "FAIL: counter key '$key' is emitted but not documented in docs/OBSERVABILITY.md"
    fail=1
  fi
done

# 6. The scenario reference is reachable from the entry points.
for doc in README.md EXPERIMENTS.md; do
  if ! grep -q 'docs/SCENARIOS.md' "$doc"; then
    echo "FAIL: $doc does not mention docs/SCENARIOS.md"
    fail=1
  fi
done

# 7. Scenario files and docs agree in both directions.
for f in scenarios/*.json; do
  name=$(basename "$f")
  if ! grep -q "$name" docs/SCENARIOS.md && ! grep -q "$name" EXPERIMENTS.md; then
    echo "FAIL: $f is not named in docs/SCENARIOS.md or EXPERIMENTS.md"
    fail=1
  fi
done
for name in $(grep -ohE 'scenarios/[a-z0-9_-]+\.json' \
                README.md EXPERIMENTS.md docs/SCENARIOS.md | sort -u); do
  if [ ! -f "$name" ]; then
    echo "FAIL: docs name $name but the file does not exist"
    fail=1
  fi
done

# 8. Config-override keys. The override table in scenario.cc holds entries of
#    the form {"key", "expected-type", ...}.
for key in $(grep -ohE '\{"[a-z_]+(\.[a-z_]+)?", "(bool|string|number|integer)' \
               src/scenario/scenario.cc | sed 's/{"//; s/".*//' | sort -u); do
  if ! grep -q "\`$key\`" docs/SCENARIOS.md; then
    echo "FAIL: config key '$key' is accepted by src/scenario/ but not documented in docs/SCENARIOS.md"
    fail=1
  fi
done

# 9. Invariant names. InvariantName() returns quoted lowercase words; each
#    must appear backticked in the testing reference, which README links.
for name in $(grep -ohE 'return "[a-z_]+"' src/check/invariant_checker.h \
                | sed 's/return "//; s/"//' | sort -u); do
  if ! grep -q "\`$name\`" docs/TESTING.md; then
    echo "FAIL: invariant '$name' is emitted but not documented in docs/TESTING.md"
    fail=1
  fi
done
if ! grep -q 'docs/TESTING.md' README.md; then
  echo "FAIL: README.md does not link docs/TESTING.md"
  fail=1
fi

# 10. The benchmark reference is reachable, and every microbenchmark name in
#     the suite (quoted "family/name" literals) plus the grid record prefix is
#     documented.
if ! grep -q 'docs/BENCHMARKS.md' README.md; then
  echo "FAIL: README.md does not link docs/BENCHMARKS.md"
  fail=1
fi
for name in $(grep -ohE '"[a-z_]+/[a-z_]+"' src/perf/core_benches.cc                 | sed 's/"//g' | sort -u); do
  if ! grep -q "\`$name\`" docs/BENCHMARKS.md; then
    echo "FAIL: benchmark '$name' is emitted but not documented in docs/BENCHMARKS.md"
    fail=1
  fi
done
for name in "grid/table4" "grid/fig12"; do
  if ! grep -q "$name" docs/BENCHMARKS.md; then
    echo "FAIL: grid record '$name' is not documented in docs/BENCHMARKS.md"
    fail=1
  fi
done

# 11. The cluster reference is reachable, covers every router the registry
#     can build (name() implementations return quoted kebab-case words), and
#     documents every cluster.* key the scenario parser accepts.
for doc in README.md docs/SCENARIOS.md; do
  if ! grep -q 'docs/CLUSTER.md' "$doc"; then
    echo "FAIL: $doc does not link docs/CLUSTER.md"
    fail=1
  fi
done
for name in $(grep -ohE 'return "[a-z-]+"' src/cluster/router.cc \
                | sed 's/return "//; s/"//' | sort -u); do
  if ! grep -q "\`$name\`" docs/CLUSTER.md; then
    echo "FAIL: router '$name' is registered by src/cluster/ but not documented in docs/CLUSTER.md"
    fail=1
  fi
done
for key in $(sed -n '/^void ParseCluster/,/^}/p' src/scenario/scenario.cc \
               | grep -ohE 'Take[A-Za-z]+\("[a-z_]+"' | sed 's/.*("//; s/"//' | sort -u); do
  if ! grep -q "\`cluster.$key\`" docs/CLUSTER.md; then
    echo "FAIL: cluster spec key 'cluster.$key' is not documented in docs/CLUSTER.md"
    fail=1
  fi
done

# 12. The hardware-model reference is reachable, and the cache model's
#     vocabulary is documented where users meet it: every cache.*/nest_cache.*
#     override key (from the same scenario.cc table rule 8 reads) and every
#     cache_* counter key must appear backticked in docs/MODEL.md and
#     docs/SCENARIOS.md.
for doc in README.md DESIGN.md; do
  if ! grep -q 'docs/MODEL.md' "$doc"; then
    echo "FAIL: $doc does not link docs/MODEL.md"
    fail=1
  fi
done
for key in $(grep -ohE '\{"(cache|nest_cache)\.[a-z_]+", "(bool|string|number|integer)' \
               src/scenario/scenario.cc | sed 's/{"//; s/".*//' | sort -u); do
  for doc in docs/MODEL.md docs/SCENARIOS.md; do
    if ! grep -q "\`$key\`" "$doc"; then
      echo "FAIL: cache config key '$key' is not documented in $doc"
      fail=1
    fi
  done
done
for key in $(grep -ohE 'AppendU64\(out, "cache_[a-z_]+"' src/obs/sched_counters.cc \
               | sed 's/.*"\(cache_[a-z_]*\)"/\1/' | sort -u); do
  for doc in docs/MODEL.md docs/SCENARIOS.md; do
    if ! grep -q "\`$key\`" "$doc"; then
      echo "FAIL: cache counter '$key' is not documented in $doc"
      fail=1
    fi
  done
done

# 13. The fault/energy reference is reachable, documents every fault-family
#     config key the scenario parser accepts, and glosses every resilience
#     field the JSONL sink can emit.
for doc in README.md DESIGN.md; do
  if ! grep -q 'docs/FAULTS.md' "$doc"; then
    echo "FAIL: $doc does not link docs/FAULTS.md"
    fail=1
  fi
done
for key in $(grep -ohE '\{"((fault|power|nest_budget)\.[a-z_]+|replicas)", "(bool|string|number|integer)' \
               src/scenario/scenario.cc | sed 's/{"//; s/".*//' | sort -u); do
  if ! grep -q "\`$key\`" docs/FAULTS.md; then
    echo "FAIL: fault config key '$key' is accepted by src/scenario/ but not documented in docs/FAULTS.md"
    fail=1
  fi
done
for field in $(sed -n '/r.resilience.any()/,/^      }/p' src/campaign/jsonl_sink.cc \
                 | grep -ohE 'AppendField\(out, "[a-z_]+"' | sed 's/.*"\([a-z_]*\)"/\1/' | sort -u); do
  if ! grep -q "\`$field\`" docs/FAULTS.md; then
    echo "FAIL: resilience field '$field' is emitted by the JSONL sink but not documented in docs/FAULTS.md"
    fail=1
  fi
done

# 14. The parallel-PDES reference is reachable, documents every parallel.*
#     key the scenario engine accepts (from the same scenario.cc table rule 8
#     reads), and names the huge-machine and rack presets that exist for
#     PDES-scale runs.
for doc in README.md DESIGN.md; do
  if ! grep -q 'docs/PARALLEL.md' "$doc"; then
    echo "FAIL: $doc does not link docs/PARALLEL.md"
    fail=1
  fi
done
for key in $(grep -ohE '\{"parallel\.[a-z_]+", "(bool|string|number|integer)' \
               src/scenario/scenario.cc | sed 's/{"//; s/".*//' | sort -u); do
  if ! grep -q "\`$key\`" docs/PARALLEL.md; then
    echo "FAIL: parallel config key '$key' is accepted by src/scenario/ but not documented in docs/PARALLEL.md"
    fail=1
  fi
done
for preset in "intel-8153-4s" "intel-8153-8s" "rack8" "rack16" "rack32"; do
  if ! grep -q "\`$preset\`" docs/PARALLEL.md; then
    echo "FAIL: PDES preset '$preset' is not documented in docs/PARALLEL.md"
    fail=1
  fi
done

# 15. The prediction reference is reachable and documents the full exported
#     feature schema (fixed columns + per-core suffixes, read from the
#     initializers in features.h) and every predict.* override key.
for doc in README.md DESIGN.md; do
  if ! grep -q 'docs/PREDICTION.md' "$doc"; then
    echo "FAIL: $doc does not link docs/PREDICTION.md"
    fail=1
  fi
done
for name in $(sed -n '/kFeatureColumns\[\] = {/,/};/p; /kPerCoreColumnSuffixes\[\] = {/,/};/p' \
                src/predict/features.h | grep -ohE '"[a-z_]+"' | sed 's/"//g' | sort -u); do
  if ! grep -q "\`$name\`" docs/PREDICTION.md; then
    echo "FAIL: feature column '$name' is exported but not documented in docs/PREDICTION.md"
    fail=1
  fi
done
for key in $(grep -ohE '\{"predict\.[a-z_]+", "(bool|string|number|integer)' \
               src/scenario/scenario.cc | sed 's/{"//; s/".*//' | sort -u); do
  if ! grep -q "\`$key\`" docs/PREDICTION.md; then
    echo "FAIL: predict config key '$key' is accepted by src/scenario/ but not documented in docs/PREDICTION.md"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs-consistency check FAILED"
  exit 1
fi
echo "docs-consistency check passed"
