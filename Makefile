# Convenience targets. `make check` is the gate a change must pass.
# (ocamlformat is not pinned in this environment, so formatting is not
# part of the gate; add it here if/when the binary is available.)

.PHONY: check build test analyze analyze-smoke chaos chaos-smoke explore \
	explore-smoke cert cert-smoke clean

# `dune runtest` already runs and diffs `analyze --smoke`, the full
# `analyze`, `chaos --smoke`, `chaos --plans 2` and `experiment all --quick`
# / `experiment ablation` against test/*.expected, so their targets are not
# repeated here.
check: build test explore-smoke cert-smoke

build:
	dune build

test:
	dune runtest

# Invariant analyzer (Dtx_check): seeded workloads under every protocol with
# the serializability / S2PL / FSM / deadlock checker attached. Exits
# non-zero on the first violation.
analyze:
	dune exec bin/dtx_cli.exe -- analyze

# Tiny single-seed analyzer pass (diffed against test/analyze_smoke.expected
# under `dune runtest`).
analyze-smoke:
	dune exec bin/dtx_cli.exe -- analyze --smoke

# Scripted chaos: seeded fault plans (drop/duplicate/reorder, partitions,
# crash + WAL-replay restart) under every protocol config with the checker
# attached. Exits non-zero on any violation.
chaos:
	dune exec bin/dtx_cli.exe -- chaos

# Reduced chaos matrix (3 plans, XDGL and Commute, each one-phase and 2PC;
# diffed against test/chaos_smoke.expected under `dune runtest`).
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
# protocol against the semantic conflict oracle, and FSM exhaustiveness of
# the coordinator/participant classification tables against reachability
# recordings. Exits non-zero on any violation; the JSON report lands on
# stdout (test/cert.expected pins it with its timings masked).
cert:
	dune exec bin/dtx_cli.exe -- cert

# Same run with the 60 s universe-pass budget enforced — part of
# `make check` (the certifier records its runtime in the report and fails
# itself when the bounded-universe pass exceeds the budget).
cert-smoke:
	dune exec bin/dtx_cli.exe -- cert --max-seconds 60 > /dev/null

clean:
	dune clean
