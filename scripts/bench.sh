#!/usr/bin/env sh
# bench.sh — run the engine benchmarks and emit perf-trajectory snapshots:
#
#   BENCH_2.json  planned vs. unplanned Engine.Conv2D (layer-level compiled
#                 inference, PR 2)
#   BENCH_3.json  whole-network compiled inference: NetworkPlan /
#                 InferenceSession vs. the uncompiled per-sample path, plus
#                 the evaluation workload (logits-once batched vs. the old
#                 double-forward sweep) (PR 3)
#   BENCH_5.json  batch-major per-sample-exact inference (ForwardBatch):
#                 SmallCNN + AlexNetS at batch {1,8,32}, plus packed-shot
#                 accounting on the tiled spec — jtc.Shots() and
#                 tiling.KernelTileTransforms() deltas recorded per sample,
#                 so packing wins show up as shot-count reductions, not
#                 just ns/op (PR 5)
#   BENCH_8.json  lockstep batched-FFT tiled inference (PR 8): the full
#                 tiled path (spectrum-arena transforms + SoA convolve)
#                 after the lockstep rewire — SmallCNN + AlexNetS at batch
#                 {1,8,32} on the tiled spec with ns/sample, allocs/op,
#                 shots/sample, and ktransforms/sample, plus the speedup
#                 against the recorded pre-lockstep tiled baseline and the
#                 kernel environment (GOAMD64, lockstep width, and the
#                 lockstep kernel family the benchmark logged: avx512f,
#                 sse2 or go)
#   BENCH_7.json  device-pool sharded inference (DevicePool.ForwardBatch):
#                 batch-32 SmallCNN across pool sizes {1,2,4,8} on the
#                 tiled spec, plus a 4-device pool with one device on a
#                 permanent outage. The scaling claim is made on the
#                 modeled-ns/sample metric (serial device cost x largest
#                 scheduled share — device parallelism modeled, scheduling
#                 real), because on a starved host wall-clock serializes
#                 the shards and cannot show device parallelism (PR 7)
#   BENCH_10.json intra-sample pool parallelism (PR 10): AlexNetS batch-1
#                 latency under output-channel sharding at pool {2,4} vs a
#                 single device: measured wall-clock ns/op beside
#                 modeled-ns/sample (measured serial batch-1 cost x the
#                 busiest device's share under the scheduler's channel
#                 split) and modeled-speedup (1/maxShare), with the arch
#                 performance model's conv time as the comparison column
#   BENCH_9.json  fleet simulation (internal/sim, PR 9): the device-outage
#                 headline scenario — 32 diurnal tenants on a 4-device pool
#                 with one permanent mid-run outage — at pool {1,4}, outage
#                 vs clean. Records each run summary (latency percentiles,
#                 shed rate, shots/s, quarantine activity, SLO verdict);
#                 fully deterministic (virtual clock, seeded), so the
#                 snapshot is a reproducible artifact, not a sample
#
# Usage: scripts/bench.sh [snapshot...]     # e.g. scripts/bench.sh 8
#   default regenerates only snapshot 8; pass "2 3 5 7 8 9" or "all" to
#   regenerate older ones too.
#   BENCHTIME=5s scripts/bench.sh           # longer sampling
#   SPEC="accelerator-noisy?nta=8" scripts/bench.sh 3   # engine spec for the
#       net-level snapshot (recorded in the JSON; default "accelerator")
#   TILEDSPEC="accelerator?tiled=true" scripts/bench.sh 5   # spec for the
#       BENCH_5 shot-accounting pass
#   POOLSPEC="accelerator?tiled=true,workers=1" scripts/bench.sh 7   # the
#       per-device spec the BENCH_7 pool replicates
#   SIMDUR=30s scripts/bench.sh 9           # shorter virtual horizon for the
#       BENCH_9 simulation runs (default: the scenario's 120s)
#   OUT2=/tmp/b2.json OUT3=/tmp/b3.json OUT5=/tmp/b5.json OUT7=/tmp/b7.json \
#       OUT9=/tmp/b9.json OUT10=/tmp/b10.json scripts/bench.sh all
set -eu
cd "$(dirname "$0")/.."
benchtime="${BENCHTIME:-2s}"
spec="${SPEC:-accelerator}"
tiledspec="${TILEDSPEC:-accelerator?tiled=true}"
poolspec="${POOLSPEC:-accelerator?tiled=true,workers=1}"

usage() {
	echo "usage: scripts/bench.sh [snapshot...]" >&2
	echo "  snapshots: 2 3 5 7 8 9 10, or \"all\" (default: 8)" >&2
	exit 2
}

# No args defaults to snapshot 8; an explicitly empty/blank argument is an
# error, not a silent default.
if [ "$#" -gt 0 ]; then
	targets="$*"
else
	targets="8"
fi
[ "$targets" = "all" ] && targets="2 3 5 7 8 9 10"
nvalid=0
for t in $targets; do
	case "$t" in
	2 | 3 | 5 | 7 | 8 | 9 | 10) nvalid=$((nvalid + 1)) ;;
	*)
		echo "bench.sh: unknown snapshot \"$t\"" >&2
		usage
		;;
	esac
done
[ "$nvalid" -gt 0 ] || usage

# fault_of extracts the fault= injector parameter of an engine spec ("" when
# the spec is fault-free) — every snapshot records it as fault_spec.
fault_of() {
	case "$1" in
	*fault=*) f="${1#*fault=}" && printf '%s' "${f%%,*}" ;;
	*) printf '' ;;
	esac
}

want() {
	for t in $targets; do
		[ "$t" = "$1" ] && return 0
	done
	return 1
}

if want 2; then
	out="${OUT2:-BENCH_2.json}"
	raw=$(go test -run '^$' -bench 'EngineUnplannedConv|EnginePlannedConv' \
		-benchmem -benchtime "$benchtime" .)
	printf '%s\n' "$raw"

	printf '%s\n' "$raw" | awk -v benchtime="$benchtime" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkEngine(Unplanned|Planned)Conv\// {
		split($1, parts, "/")
		kind = (parts[1] ~ /Unplanned/) ? "unplanned" : "planned"
		wl = parts[2]
		sub(/-[0-9]+$/, "", wl)
		ns[wl "," kind] = $3
		bytes[wl "," kind] = $5
		allocs[wl "," kind] = $7
		if (!(wl in seen)) { order[++n] = wl; seen[wl] = 1 }
	}
	END {
		printf "{\n"
		printf "  \"id\": \"BENCH_2\",\n"
		printf "  \"benchmark\": \"Engine.Conv2D repeated-batch: planned (LayerPlan) vs unplanned\",\n"
		printf "  \"engine_spec\": \"accelerator (planned) vs unplanned (baseline), plus per-workload params\",\n"
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"workloads\": {\n"
		for (i = 1; i <= n; i++) {
			wl = order[i]
			printf "    \"%s\": {\n", wl
			printf "      \"unplanned\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", \
				ns[wl ",unplanned"], bytes[wl ",unplanned"], allocs[wl ",unplanned"]
			printf "      \"planned\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", \
				ns[wl ",planned"], bytes[wl ",planned"], allocs[wl ",planned"]
			printf "      \"speedup\": %.2f,\n", ns[wl ",unplanned"] / ns[wl ",planned"]
			printf "      \"alloc_reduction\": %.2f\n", allocs[wl ",unplanned"] / allocs[wl ",planned"]
			printf "    }%s\n", (i < n) ? "," : ""
		}
		printf "  }\n"
		printf "}\n"
	}' >"$out"
	echo "wrote $out"
fi

if want 3; then
	out="${OUT3:-BENCH_3.json}"
	raw=$(PF_BENCH_ENGINE="$spec" go test -run '^$' \
		-bench '^BenchmarkNetInference$|^BenchmarkNetEvaluate$' \
		-benchmem -benchtime "$benchtime" .)
	printf '%s\n' "$raw"

	printf '%s\n' "$raw" | awk -v benchtime="$benchtime" -v spec="$spec" \
		-v fault="$(fault_of "$spec")" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkNet(Inference|Evaluate)\// {
		split($1, parts, "/")
		grp = (parts[1] ~ /Inference/) ? "forward" : "evaluate"
		wl = parts[2]
		sub(/-[0-9]+$/, "", wl)
		ns[grp "," wl] = $3
		bytes[grp "," wl] = $5
		allocs[grp "," wl] = $7
	}
	function row(grp, wl, div,   n) {
		n = ns[grp "," wl]
		printf "      \"ns_per_op\": %s, \"ns_per_sample\": %.0f, \"bytes_per_op\": %s, \"allocs_per_op\": %s\n", \
			n, n / div, bytes[grp "," wl], allocs[grp "," wl]
	}
	END {
		fu = ns["forward,uncompiled-per-sample"]
		eu = ns["evaluate,per-sample-double-forward"]
		printf "{\n"
		printf "  \"id\": \"BENCH_3\",\n"
		printf "  \"benchmark\": \"whole-network compiled inference (SmallCNN 3x32x32): NetworkPlan + InferenceSession vs uncompiled per-sample\",\n"
		printf "  \"engine_spec\": \"%s\",\n", spec
		printf "  \"pool_size\": 1,\n"
		printf "  \"fault_spec\": \"%s\",\n", fault
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"forward\": {\n"
		printf "    \"uncompiled_per_sample\": {\n"; row("forward", "uncompiled-per-sample", 1); printf "    },\n"
		printf "    \"compiled_per_sample\": {\n"; row("forward", "compiled-per-sample", 1); printf "    },\n"
		printf "    \"compiled_batch8\": {\n"; row("forward", "compiled-batch8", 8); printf "    },\n"
		printf "    \"session_batch8\": {\n"; row("forward", "session-batch8", 1); printf "    },\n"
		printf "    \"compiled_speedup\": %.2f,\n", fu / ns["forward,compiled-per-sample"]
		printf "    \"batched_speedup\": %.2f,\n", fu / (ns["forward,compiled-batch8"] / 8)
		printf "    \"session_speedup\": %.2f\n", fu / ns["forward,session-batch8"]
		printf "  },\n"
		printf "  \"evaluate\": {\n"
		printf "    \"per_sample_double_forward\": {\n"; row("evaluate", "per-sample-double-forward", 1); printf "    },\n"
		printf "    \"compiled_batch8\": {\n"; row("evaluate", "compiled-batch8", 8); printf "    },\n"
		printf "    \"throughput_speedup\": %.2f\n", eu / (ns["evaluate,compiled-batch8"] / 8)
		printf "  }\n"
		printf "}\n"
	}' >"$out"
	echo "wrote $out"
fi

if want 5; then
	out="${OUT5:-BENCH_5.json}"
	raw=$(PF_BENCH_ENGINE="$spec" go test -run '^$' \
		-bench '^BenchmarkNetForwardBatch$' \
		-benchmem -benchtime "$benchtime" .)
	printf '%s\n' "$raw"

	# Packed-shot accounting on the tiled spec: shot counts per op are
	# deterministic, so a couple of iterations suffice.
	rawshots=$(PF_BENCH_ENGINE="$tiledspec" go test -run '^$' \
		-bench '^BenchmarkNetForwardBatch$/.*/^batch[18]$' \
		-benchtime 2x .)
	printf '%s\n' "$rawshots"

	# BENCH_3's recorded compiled-batch8 per-sample cost is the baseline the
	# acceptance ratio is computed against.
	bench3=$(awk '/"compiled_batch8"/{f=1} f&&/ns_per_sample/{match($0, /"ns_per_sample": [0-9]+/); s=substr($0, RSTART+17, RLENGTH-17); print s+0; exit}' BENCH_3.json 2>/dev/null)
	[ -n "$bench3" ] || bench3=0

	{
		printf '%s\n' "$raw"
		printf 'SHOTS %s\n' ""
		printf '%s\n' "$rawshots"
	} | awk -v benchtime="$benchtime" -v spec="$spec" -v tiledspec="$tiledspec" \
		-v bench3="$bench3" -v fault="$(fault_of "$spec")" '
	/^SHOTS/ { shots_section = 1; next }
	/^cpu:/ { if (!cpu) { sub(/^cpu: */, ""); cpu = $0 } }
	/^BenchmarkNetForwardBatch\// {
		split($1, parts, "/")
		net = parts[2]
		wl = parts[3]
		sub(/-[0-9]+$/, "", wl)
		key = net "," wl
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") v_ns = $i
			else if ($(i+1) == "shots/sample") v_sh = $i
			else if ($(i+1) == "ktransforms/sample") v_kt = $i
			else if ($(i+1) == "B/op") v_b = $i
			else if ($(i+1) == "allocs/op") v_al = $i
		}
		if (shots_section) {
			tshots[key] = v_sh
			tkt[key] = v_kt
		} else {
			ns[key] = v_ns
			bytes[key] = v_b
			allocs[key] = v_al
			if (!(net in seenNet)) { netOrder[++nn2] = net; seenNet[net] = 1 }
		}
	}
	function div_of(wl) { sub(/batch/, "", wl); return wl + 0 }
	END {
		printf "{\n"
		printf "  \"id\": \"BENCH_5\",\n"
		printf "  \"benchmark\": \"batch-major per-sample-exact inference (NetworkPlan.ForwardBatch): SmallCNN + AlexNetS, batch {1,8,32}\",\n"
		printf "  \"engine_spec\": \"%s\",\n", spec
		printf "  \"pool_size\": 1,\n"
		printf "  \"fault_spec\": \"%s\",\n", fault
		printf "  \"tiled_spec\": \"%s\",\n", tiledspec
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"forward_batch\": {\n"
		for (i = 1; i <= nn2; i++) {
			net = netOrder[i]
			printf "    \"%s\": {\n", net
			first = 1
			split("1 8 32", sizes, " ")
			for (si = 1; si <= 3; si++) {
				bsz = sizes[si]
				wl = "batch" bsz
				key = net "," wl
				if (!(key in ns)) continue
				if (!first) printf ",\n"
				first = 0
				printf "      \"%s\": {\"ns_per_op\": %s, \"ns_per_sample\": %.0f, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
					wl, ns[key], ns[key] / bsz, bytes[key], allocs[key]
			}
			printf "\n    }%s\n", (i < nn2) ? "," : ""
		}
		printf "  },\n"
		printf "  \"bench3_compiled_batch8_ns_per_sample\": %s,\n", bench3
		if (bench3 > 0 && ("smallcnn,batch8" in ns))
			printf "  \"smallcnn_batch8_speedup_vs_bench3\": %.2f,\n", bench3 / (ns["smallcnn,batch8"] / 8)
		printf "  \"tiled_packed_shots\": {\n"
		first = 1
		for (i = 1; i <= nn2; i++) {
			net = netOrder[i]
			k1 = net ",batch1"; k8 = net ",batch8"
			if (!(k1 in tshots) || !(k8 in tshots)) continue
			if (!first) printf ",\n"
			first = 0
			printf "    \"%s\": {\"batch1_shots_per_sample\": %s, \"batch8_shots_per_sample\": %s, \"shot_reduction\": %.3f, \"batch8_kernel_transforms_per_sample\": %s}", \
				net, tshots[k1], tshots[k8], 1 - tshots[k8] / tshots[k1], tkt[k8]
		}
		printf "\n  }\n"
		printf "}\n"
	}' >"$out"
	echo "wrote $out"
fi

if want 8; then
	out="${OUT8:-BENCH_8.json}"
	raw=$(PF_BENCH_ENGINE="$tiledspec" go test -run '^$' \
		-bench '^BenchmarkNetForwardBatch$' \
		-benchmem -benchtime "$benchtime" .)
	printf '%s\n' "$raw"

	# Pre-lockstep tiled baseline on the reference host (PR 7 tree,
	# accelerator?tiled=true, AlexNetS batch 8): 146977326 ns/op = 18372166
	# ns/sample. Host-dependent; the speedup field is meaningful only on
	# comparable hardware.
	baseline=18372166
	goamd64=$(go env GOAMD64)
	[ -n "$goamd64" ] || goamd64=v1

	printf '%s\n' "$raw" | awk -v benchtime="$benchtime" -v tiledspec="$tiledspec" \
		-v baseline="$baseline" -v goamd64="$goamd64" \
		-v fault="$(fault_of "$tiledspec")" '
	/^cpu:/ { if (!cpu) { sub(/^cpu: */, ""); cpu = $0 } }
	/lockstep kernels:/ { if (!kernels) kernels = $NF }
	/^BenchmarkNetForwardBatch\// {
		split($1, parts, "/")
		net = parts[2]
		wl = parts[3]
		sub(/-[0-9]+$/, "", wl)
		key = net "," wl
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") v_ns = $i
			else if ($(i+1) == "shots/sample") v_sh = $i
			else if ($(i+1) == "ktransforms/sample") v_kt = $i
			else if ($(i+1) == "B/op") v_b = $i
			else if ($(i+1) == "allocs/op") v_al = $i
		}
		ns[key] = v_ns; sh[key] = v_sh; kt[key] = v_kt
		bytes[key] = v_b; allocs[key] = v_al
		if (!(net in seenNet)) { netOrder[++nn2] = net; seenNet[net] = 1 }
	}
	END {
		printf "{\n"
		printf "  \"id\": \"BENCH_8\",\n"
		printf "  \"benchmark\": \"lockstep batched-FFT tiled inference (NetworkPlan.ForwardBatch on the spectrum arena): SmallCNN + AlexNetS, batch {1,8,32}\",\n"
		printf "  \"engine_spec\": \"%s\",\n", tiledspec
		printf "  \"fault_spec\": \"%s\",\n", fault
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"kernel_env\": {\"goamd64\": \"%s\", \"lockstep_width\": 8, \"asm_kernels\": \"%s\"},\n", goamd64, kernels
		printf "  \"forward_batch\": {\n"
		for (i = 1; i <= nn2; i++) {
			net = netOrder[i]
			printf "    \"%s\": {\n", net
			first = 1
			split("1 8 32", sizes, " ")
			for (si = 1; si <= 3; si++) {
				bsz = sizes[si]
				wl = "batch" bsz
				key = net "," wl
				if (!(key in ns)) continue
				if (!first) printf ",\n"
				first = 0
				printf "      \"%s\": {\"ns_per_op\": %s, \"ns_per_sample\": %.0f, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"shots_per_sample\": %s, \"ktransforms_per_sample\": %s}", \
					wl, ns[key], ns[key] / bsz, bytes[key], allocs[key], sh[key], kt[key]
			}
			printf "\n    }%s\n", (i < nn2) ? "," : ""
		}
		printf "  },\n"
		printf "  \"baseline_tiled_alexnets_batch8_ns_per_sample\": %s,\n", baseline
		if ("alexnets,batch8" in ns)
			printf "  \"alexnets_batch8_speedup_vs_baseline\": %.2f,\n", baseline / (ns["alexnets,batch8"] / 8)
		if ("smallcnn,batch8" in ns)
			printf "  \"smallcnn_batch8_steady_state_allocs_per_op\": %s\n", allocs["smallcnn,batch8"]
		printf "}\n"
	}' >"$out"
	echo "wrote $out"
fi

if want 7; then
	out="${OUT7:-BENCH_7.json}"
	raw=$(PF_BENCH_POOL_DEVICE="$poolspec" go test -run '^$' \
		-bench '^BenchmarkPoolForwardBatch$' \
		-benchmem -benchtime "$benchtime" .)
	printf '%s\n' "$raw"

	printf '%s\n' "$raw" | awk -v benchtime="$benchtime" -v poolspec="$poolspec" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkPoolForwardBatch\// {
		split($1, parts, "/")
		wl = parts[2]
		sub(/-[0-9]+$/, "", wl)
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") v_ns = $i
			else if ($(i+1) == "modeled-ns/sample") v_mod = $i
			else if ($(i+1) == "live-devices") v_live = $i
			else if ($(i+1) == "B/op") v_b = $i
			else if ($(i+1) == "allocs/op") v_al = $i
		}
		ns[wl] = v_ns; mod[wl] = v_mod; live[wl] = v_live
		bytes[wl] = v_b; allocs[wl] = v_al
		if (!(wl in seen)) { order[++n] = wl; seen[wl] = 1 }
	}
	function size_of(wl) { sub(/^pool/, "", wl); sub(/-outage$/, "", wl); return wl + 0 }
	END {
		printf "{\n"
		printf "  \"id\": \"BENCH_7\",\n"
		printf "  \"benchmark\": \"device-pool sharded inference (DevicePool.ForwardBatch): SmallCNN batch 32 at pool sizes {1,2,4,8} + 4-device pool with one permanent outage\",\n"
		printf "  \"device_spec\": \"%s\",\n", poolspec
		printf "  \"batch\": 32,\n"
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"metric_note\": \"modeled_ns_per_sample = serial per-device cost x largest sample share the pool scheduler assigned to any device; wall-clock shard execution serializes on a single-CPU host, so ns_per_op cannot show device parallelism\",\n"
		printf "  \"pools\": {\n"
		for (i = 1; i <= n; i++) {
			wl = order[i]
			fault = (wl ~ /outage/) ? "outage:1" : ""
			printf "    \"%s\": {\"pool_size\": %d, \"fault_spec\": \"%s\", \"live_devices\": %d, \"ns_per_op\": %s, \"wall_ns_per_sample\": %.0f, \"modeled_ns_per_sample\": %.0f, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
				wl, size_of(wl), fault, live[wl] + 0, ns[wl], ns[wl] / 32, mod[wl], bytes[wl], allocs[wl], (i < n) ? "," : ""
		}
		printf "  },\n"
		printf "  \"modeled_speedup_pool2_vs_pool1\": %.2f,\n", mod["pool1"] / mod["pool2"]
		printf "  \"modeled_speedup_pool4_vs_pool1\": %.2f,\n", mod["pool1"] / mod["pool4"]
		printf "  \"modeled_speedup_pool8_vs_pool1\": %.2f,\n", mod["pool1"] / mod["pool8"]
		printf "  \"outage_modeled_speedup_vs_pool1\": %.2f\n", mod["pool1"] / mod["pool4-outage"]
		printf "}\n"
	}' >"$out"
	echo "wrote $out"
fi

if want 10; then
	out="${OUT10:-BENCH_10.json}"
	raw=$(PF_BENCH_POOL_DEVICE="$poolspec" go test -run '^$' \
		-bench '^BenchmarkIntraBatch1$' \
		-benchmem -benchtime "$benchtime" .)
	printf '%s\n' "$raw"

	printf '%s\n' "$raw" | awk -v benchtime="$benchtime" -v poolspec="$poolspec" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkIntraBatch1\// {
		split($1, parts, "/")
		wl = parts[2]
		sub(/-[0-9]+$/, "", wl)
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") v_ns = $i
			else if ($(i+1) == "modeled-ns/sample") v_mod = $i
			else if ($(i+1) == "modeled-speedup") v_sp = $i
			else if ($(i+1) == "arch-ns/sample") v_arch = $i
			else if ($(i+1) == "live-devices") v_live = $i
			else if ($(i+1) == "B/op") v_b = $i
			else if ($(i+1) == "allocs/op") v_al = $i
		}
		ns[wl] = v_ns; mod[wl] = v_mod; sp[wl] = v_sp
		arch[wl] = v_arch; live[wl] = v_live
		bytes[wl] = v_b; allocs[wl] = v_al
		if (!(wl in seen)) { order[++n] = wl; seen[wl] = 1 }
	}
	function shard_of(wl) { return (wl ~ /^channel/) ? "channel" : "sample" }
	function size_of(wl) { sub(/^[a-z]+/, "", wl); return (wl == "") ? 1 : wl + 0 }
	END {
		printf "{\n"
		printf "  \"id\": \"BENCH_10\",\n"
		printf "  \"benchmark\": \"intra-sample pool parallelism (DevicePool shard=channel): AlexNetS batch-1 latency at pool {2,4} vs a single device\",\n"
		printf "  \"device_spec\": \"%s\",\n", poolspec
		printf "  \"batch\": 1,\n"
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"metric_note\": \"ns_per_op is measured wall-clock batch-1 latency; the range goroutines of one layer run on the host CPUs, so it can show device parallelism only up to the CPU count and past it measures oversubscription. modeled_batch1_ns_per_sample = measured serial single-device batch-1 cost x the busiest device share under the scheduler channel split (SplitChannels over arch step costs), i.e. every device an independent accelerator. arch_ns_per_sample is the arch performance model conv time for the same plan geometry, the comparison column\",\n"
		printf "  \"strategies\": {\n"
		for (i = 1; i <= n; i++) {
			wl = order[i]
			printf "    \"%s\": {\"shard\": \"%s\", \"pool_size\": %d, \"live_devices\": %d, \"ns_per_op\": %s, \"modeled_batch1_ns_per_sample\": %.0f, \"modeled_speedup\": %.3f, \"arch_ns_per_sample\": %.1f, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
				wl, shard_of(wl), size_of(wl), live[wl] + 0, ns[wl], mod[wl], sp[wl], arch[wl], bytes[wl], allocs[wl], (i < n) ? "," : ""
		}
		printf "  },\n"
		printf "  \"modeled_speedup_channel2\": %.3f,\n", mod["single"] / mod["channel2"]
		printf "  \"modeled_speedup_channel4\": %.3f\n", mod["single"] / mod["channel4"]
		printf "}\n"
	}' >"$out"
	echo "wrote $out"
fi

if want 9; then
	out="${OUT9:-BENCH_9.json}"
	simdur="${SIMDUR:-}"
	durflag=""
	[ -n "$simdur" ] && durflag="-sim-duration $simdur"
	# Three deterministic runs of the headline scenario: single clean worker,
	# the full 4-worker fleet clean, and the fleet with its mid-run outage.
	# $durflag is intentionally unquoted: empty expands to no flag.
	# shellcheck disable=SC2086
	pool1=$(go run ./cmd/photofourier -sim device-outage -sim-json -sim-pool 1 -sim-chaos=false $durflag)
	# shellcheck disable=SC2086
	clean4=$(go run ./cmd/photofourier -sim device-outage -sim-json -sim-chaos=false $durflag)
	# shellcheck disable=SC2086
	outage4=$(go run ./cmd/photofourier -sim device-outage -sim-json $durflag)
	printf 'pool1 clean:  %s\n' "$pool1"
	printf 'pool4 clean:  %s\n' "$clean4"
	printf 'pool4 outage: %s\n' "$outage4"

	# field NAME JSON — pull a scalar out of a one-line summary.
	field() {
		printf '%s' "$2" | awk -v key="\"$1\":" '{
			i = index($0, key)
			if (!i) { print 0; exit }
			s = substr($0, i + length(key))
			sub(/[,}].*/, "", s)
			print s + 0
		}'
	}

	p991=$(field p99_ns "$pool1")
	p99c=$(field p99_ns "$clean4")
	p99o=$(field p99_ns "$outage4")
	{
		printf '{\n'
		printf '  "id": "BENCH_9",\n'
		printf '  "benchmark": "fleet simulation (internal/sim): device-outage headline scenario, 32 diurnal tenants, pool {1,4}, outage vs clean",\n'
		printf '  "scenario": "device-outage",\n'
		printf '  "sim_duration_override": "%s",\n' "$simdur"
		printf '  "pool1_clean": %s,\n' "$pool1"
		printf '  "pool4_clean": %s,\n' "$clean4"
		printf '  "pool4_outage": %s,\n' "$outage4"
		awk -v p1="$p991" -v c="$p99c" -v o="$p99o" 'BEGIN {
			printf "  \"pool4_vs_pool1_p99_speedup\": %.2f,\n", (c > 0) ? p1 / c : 0
			printf "  \"outage_vs_clean_p99_ratio\": %.3f\n", (c > 0) ? o / c : 0
		}'
		printf '}\n'
	} >"$out"
	echo "wrote $out"
fi
