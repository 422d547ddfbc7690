# Convenience targets. `make check` is the gate a change must pass.
# (ocamlformat is not pinned in this environment, so formatting is not
# part of the gate; add it here if/when the binary is available.)

.PHONY: check build test test-locks-unsharded bench bench-smoke bench-json \
	bench-scale bench-scale-smoke bench-commute bench-commute-smoke \
	ablation-identical analyze analyze-smoke chaos chaos-smoke explore \
	explore-smoke cert cert-smoke clean

check: build test test-locks-unsharded bench-smoke bench-scale-smoke \
	bench-commute-smoke analyze-smoke chaos-smoke explore-smoke cert-smoke \
	ablation-identical

build:
	dune build

test:
	dune runtest

# The lock-table suite again with a single shard: the batched-vs-per-request
# QCheck differential (and everything else) must hold at both ends of the
# DTX_LOCK_SHARDS range.
test-locks-unsharded:
	DTX_LOCK_SHARDS=1 dune exec test/test_locks.exe

bench:
	dune exec bench/main.exe -- quick

# Tiny-quota microbench pass: catches perf-path code that crashes without
# paying for a real measurement run.
bench-smoke:
	dune exec bench/main.exe -- micro smoke

# Machine-readable perf snapshot (micro ns/run + fig9-quick workload numbers).
bench-json:
	dune exec bench/main.exe -- json

# Extreme-scale client sweep (1000 sites, up to 10k clients) — writes
# BENCH_scale.json.
bench-scale:
	dune exec bench/main.exe -- scale

# Reduced sweep that writes nothing — part of `make check`.
bench-scale-smoke:
	dune exec bench/main.exe -- scale smoke

# Commute vs XDGL/Node2PL on contention mixes (the optimistic protocol's
# value proposition) — writes BENCH_pr9.json.
bench-commute:
	dune exec bench/main.exe -- commute

# One tiny mix that writes nothing — part of `make check`.
bench-commute-smoke:
	dune exec bench/main.exe -- commute smoke

# Byte-identical ablation gate: an unsharded (single-shard) lock table must
# reproduce the default configuration's chaos and explore output exactly —
# both are implementations of one lock-table semantics, so any divergence
# is a bug.
ablation-identical:
	dune exec bin/dtx_cli.exe -- chaos --smoke > _build/ablation_default.out
	DTX_LOCK_SHARDS=1 dune exec bin/dtx_cli.exe -- \
	  chaos --smoke > _build/ablation_unsharded.out
	cmp _build/ablation_default.out _build/ablation_unsharded.out
	dune exec bin/dtx_cli.exe -- explore --scenario ref > _build/ablation_default.out
	DTX_LOCK_SHARDS=1 dune exec bin/dtx_cli.exe -- \
	  explore --scenario ref > _build/ablation_unsharded.out
	cmp _build/ablation_default.out _build/ablation_unsharded.out

# Invariant analyzer (Dtx_check): seeded workloads under every protocol with
# the serializability / S2PL / FSM / deadlock checker attached. Exits
# non-zero on the first violation.
analyze:
	dune exec bin/dtx_cli.exe -- analyze

# Tiny single-seed analyzer pass — part of `make check`.
analyze-smoke:
	dune exec bin/dtx_cli.exe -- analyze --smoke

# Scripted chaos: seeded fault plans (drop/duplicate/reorder, partitions,
# crash + WAL-replay restart) under every protocol config with the checker
# attached. Exits non-zero on any violation.
chaos:
	dune exec bin/dtx_cli.exe -- chaos

# Reduced chaos matrix (3 plans, XDGL and XDGL+2PC) — part of `make check`.
chaos-smoke:
	dune exec bin/dtx_cli.exe -- chaos --smoke

# Schedule-space model checking: every inequivalent message-delivery
# schedule of the pinned scenarios, DPOR-reduced by the static
# commutativity analysis, with the invariant checker as oracle. Covers
# one-phase and 2PC under XDGL, Node2PL and Commute.
explore:
	dune exec bin/dtx_cli.exe -- explore --scenario all
	dune exec bin/dtx_cli.exe -- explore --scenario all --protocol node2pl
	dune exec bin/dtx_cli.exe -- explore --scenario all --protocol commute
	dune exec bin/dtx_cli.exe -- explore --scenario ref --two-phase
	dune exec bin/dtx_cli.exe -- explore --scenario ref --protocol commute \
	  --two-phase

# Reference-scenario pass with the >= 2x DPOR-reduction gate — part of
# `make check` (the gate also re-runs the naive baseline).
explore-smoke:
	dune exec bin/dtx_cli.exe -- explore --scenario ref --gate-reduction 2.0
	dune exec bin/dtx_cli.exe -- explore --scenario ref --protocol node2pl \
	  --gate-reduction 2.0
	dune exec bin/dtx_cli.exe -- explore --scenario ref --protocol commute \
	  --gate-reduction 2.0

# Symbolic soundness certifier (Dtx_cert): lock-coverage soundness of every
# registered protocol against the semantic conflict oracle, FSM
# exhaustiveness of the coordinator/participant classification tables
# against reachability recordings, and registry-capability coherence.
# Exits non-zero on any violation; the JSON report lands on stdout.
cert:
	dune exec bin/dtx_cli.exe -- cert

# Same run with the 60 s universe-pass budget enforced — part of
# `make check` (the certifier records its runtime in the report and fails
# itself when the bounded-universe pass exceeds the budget).
cert-smoke:
	dune exec bin/dtx_cli.exe -- cert --max-seconds 60 > /dev/null

clean:
	dune clean
