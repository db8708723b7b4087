package pool

// Channel sharding: the golden matrix (bit-identity to one engine across
// substrates, pool sizes, and nets — including keyed readout noise, and
// concurrent requests under -race), outage degradation, the pools that
// serve by sample only, and the per-call split rule.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

func assertSameData(t *testing.T, name string, r int, want, got *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: request %d: size %d vs %d", name, r, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: request %d diverged at %d: %v vs %v", name, r, i, got.Data[i], want.Data[i])
		}
	}
}

// channelForward sends x down the channel-range path on every live device,
// reserving its call block as ForwardBatch does. Tests of the range
// contracts call it directly, so they hold whatever split the host's CPU
// count would make ForwardBatch pick.
func channelForward(p *DevicePool, x *tensor.Tensor) (*tensor.Tensor, error) {
	n := uint64(x.Shape[0])
	base := p.calls.Add(n*p.stride) - n*p.stride
	return p.forwardChannel(x, base, p.requests.Add(1), p.Size())
}

// setProcs sets GOMAXPROCS, which the split rule reads, for the rest of
// the test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestChannelShardGoldenMatchesSingleEngine is the channel-shard
// acceptance matrix: {direct, tiled, noisy} substrates × pool {2,4} ×
// {SmallCNN, AlexNetS}, requests of batch 1 and 5, all bit-identical to
// one engine serving the same sequence. The combined-scale exchange and
// the skip-ahead readout substreams must be invisible. On the noise-free
// substrates a second phase sends concurrent batch-1 requests, each of
// which must equal the single engine's result for its sample (run under
// -race, this is the concurrency check of the request serialization).
func TestChannelShardGoldenMatchesSingleEngine(t *testing.T) {
	const concurrent = 16
	specs := []string{
		"accelerator?workers=1",
		"accelerator?tiled=true,workers=1",
		"accelerator-noisy?workers=1",
	}
	batches := []int{1, 5}
	for _, net := range poolNets() {
		for _, spec := range specs {
			eng, err := backend.Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			single, err := net.Compile(eng)
			if err != nil {
				t.Fatal(err)
			}
			var wants []*tensor.Tensor
			for r, n := range batches {
				w, err := single.ForwardBatch(poolBatch(int64(300+r), n))
				if err != nil {
					t.Fatal(err)
				}
				wants = append(wants, w)
			}
			for _, size := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/channel/size=%d", net.Name, spec, size)
				p := mustPool(t, net, Options{Specs: repeatSpec(spec, size)})
				if !p.channelOK {
					t.Fatalf("%s: homogeneous pool is not channel-eligible", name)
				}
				for r, n := range batches {
					got, err := channelForward(p, poolBatch(int64(300+r), n))
					if err != nil {
						t.Fatalf("%s: request %d: %v", name, r, err)
					}
					assertSameData(t, name, r, wants[r], got)
				}
				if p.BatchInvariant() {
					gots := make([]*tensor.Tensor, concurrent)
					errs := make([]error, concurrent)
					var wg sync.WaitGroup
					for r := 0; r < concurrent; r++ {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							gots[r], errs[r] = channelForward(p, poolBatch(int64(500+r), 1))
						}(r)
					}
					wg.Wait()
					for r := 0; r < concurrent; r++ {
						if errs[r] != nil {
							t.Fatalf("%s: concurrent request %d: %v", name, r, errs[r])
						}
						want, err := single.ForwardBatch(poolBatch(int64(500+r), 1))
						if err != nil {
							t.Fatal(err)
						}
						assertSameData(t, name+"/concurrent", r, want, gots[r])
					}
				}
				p.Close()
			}
		}
	}
}

// TestChannelShardDeviceOutageDegrades: with a homogeneous channel-shard
// pool, an outage fails the request (the serve ladder retries), the
// device quarantines, and subsequent requests succeed on the surviving
// devices with unchanged results.
func TestChannelShardDeviceOutageDegrades(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	spec := "accelerator?workers=1,fault=outage:8,faultseed=3"
	p := mustPool(t, net, Options{
		Specs:               repeatSpec(spec, 3),
		QuarantineThreshold: 1,
		ProbeInterval:       time.Hour, // outage devices never readmit anyway
	})
	if !p.channelOK {
		t.Fatal("homogeneous outage pool is not channel-eligible")
	}
	var sawErr bool
	for r := 0; r < 6; r++ {
		_, err := channelForward(p, poolBatch(int64(40+r), 1))
		if err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("outage at call 8 never surfaced over 6 requests")
	}
	if q := p.Counters().Quarantines; q == 0 {
		t.Fatal("faulting devices were never quarantined")
	}
}

// TestChannelIneligiblePoolsServeBySample: channel ranges split one
// logical engine, so they need every device on one spec (the same weights,
// seed and operating point) and a readout that decomposes over
// output-channel ranges — percentile ADC calibration and the shot-fault
// guard need whole planes. Pools that fail either check open, and serve
// every call by sample even where the split rule would otherwise pick
// channel ranges (lone batch-1 calls at 2 or more CPUs).
func TestChannelIneligiblePoolsServeBySample(t *testing.T) {
	setProcs(t, max(2, runtime.GOMAXPROCS(0)))
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	for _, specs := range [][]string{
		{"accelerator?workers=1", "accelerator?tiled=true,workers=1"},
		repeatSpec("accelerator?workers=1,fault=shot:1e-3,faultseed=7", 2),
		repeatSpec("accelerator?workers=1,calib=0.99", 2),
	} {
		var log bytes.Buffer
		p := mustPool(t, net, Options{Specs: specs, DecisionLog: &log})
		if p.channelOK {
			t.Fatalf("pool %q is channel-eligible", specs)
		}
		for r := 0; r < 3; r++ {
			out, err := p.ForwardBatch(poolBatch(int64(60+r), 1))
			if err != nil {
				t.Fatalf("pool %q: request %d: %v", specs, r, err)
			}
			if out.Shape[0] != 1 || out.Shape[1] != 10 {
				t.Fatalf("pool %q: output shape %v, want [1 10]", specs, out.Shape)
			}
		}
		if got := log.String(); strings.Contains(got, "mode=channel") || !strings.Contains(got, "mode=sample") {
			t.Fatalf("pool %q: want sample shards only:\n%s", specs, got)
		}
	}
}

// TestDecisionLog: the decision log shows the split ForwardBatch picks. At
// 2 CPUs a batch-1 call on a 4-device pool takes exactly 2 output-channel
// ranges per conv step (capped at the CPUs, not the devices), and a
// batch-2 call takes sample shards; at 1 CPU every call takes sample
// shards.
func TestDecisionLog(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	for _, tc := range []struct {
		procs, batch int
		mode         string
	}{
		{2, 1, "channel"},
		{2, 2, "sample"},
		{1, 1, "sample"},
		{1, 2, "sample"},
	} {
		name := fmt.Sprintf("procs=%d/batch=%d", tc.procs, tc.batch)
		setProcs(t, tc.procs)
		var log bytes.Buffer
		p := mustPool(t, net, Options{Specs: repeatSpec("accelerator?workers=1", 4), DecisionLog: &log})
		if _, err := p.ForwardBatch(poolBatch(7, tc.batch)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p.Close()
		lines := strings.Split(strings.TrimSpace(log.String()), "\n")
		want := []string{"mode=sample", "dev=", "samples=["}
		if tc.mode == "channel" {
			want = []string{"mode=channel", "step=", "first=", "dev=", "oc=["}
		}
		ranges := map[string]int{} // per conv step, keyed by its call index
		for _, line := range lines {
			for _, needle := range want {
				if !strings.Contains(line, needle) {
					t.Fatalf("%s: decision line misses %q:\n%s", name, needle, log.String())
				}
			}
			if _, first, ok := strings.Cut(line, " first="); ok {
				ranges[strings.Fields(first)[0]]++
			}
		}
		if tc.mode != "channel" {
			continue
		}
		convs := 0
		for _, s := range p.devs[0].chanSteps {
			if s.Range != nil {
				convs++
			}
		}
		if convs == 0 || len(ranges) != convs {
			t.Errorf("%s: ranges logged for %d steps, want the %d conv steps:\n%s", name, len(ranges), convs, log.String())
		}
		for first, n := range ranges {
			if n != 2 {
				t.Errorf("%s: step first=%s logged %d ranges, want 2:\n%s", name, first, n, log.String())
			}
		}
	}
}

// TestChannelParts pins the split rule: channel ranges only for an
// eligible pool's lone batch-1 call, and at most min(live devices,
// maxshards, CPUs) of them.
func TestChannelParts(t *testing.T) {
	for _, tc := range []struct {
		n, live, maxShards, procs int
		alone, eligible           bool
		want                      int
	}{
		{1, 2, 2, 2, true, true, 2},  // lone batch-1 call
		{1, 4, 4, 2, true, true, 2},  // capped at the CPUs
		{1, 4, 3, 8, true, true, 3},  // capped at maxshards
		{1, 3, 4, 8, true, true, 3},  // capped at the live devices
		{3, 4, 4, 8, true, true, 0},  // batch 3, though it has fewer samples than ranges
		{2, 4, 4, 2, true, true, 0},  // batch 2
		{8, 2, 2, 2, true, true, 0},  // batch 8
		{1, 2, 2, 1, true, true, 0},  // one CPU
		{1, 1, 1, 4, true, true, 0},  // one live device
		{1, 4, 1, 4, true, true, 0},  // maxshards=1
		{1, 2, 2, 2, false, true, 0}, // another call in flight
		{1, 2, 2, 2, true, false, 0}, // ineligible pool
	} {
		if got := channelParts(tc.n, tc.live, tc.maxShards, tc.procs, tc.alone, tc.eligible); got != tc.want {
			t.Errorf("channelParts(%+v) = %d, want %d", tc, got, tc.want)
		}
	}
}

// TestHoldLiveRanksIdleThenHealthiest: a channel call holds idle devices
// before busy ones, the healthiest first within each, never a quarantined
// device, and takes one hold on each device it returns.
func TestHoldLiveRanksIdleThenHealthiest(t *testing.T) {
	p := mustPool(t, nn.SmallCNN([2]int{4, 8}, 10, 99), Options{Specs: repeatSpec("accelerator?workers=1", 4)})
	p.mu.Lock()
	p.devs[0].busy = 1 // a sample shard holds device 0
	p.devs[1].health.EWMANs = 2e6
	p.devs[2].health.EWMANs = 1e6
	p.devs[3].health.Quarantined = true
	p.mu.Unlock()
	ids := func(devs []*device) []int {
		var out []int
		for _, d := range devs {
			out = append(out, d.id)
		}
		return out
	}
	if got := ids(p.holdLive(2)); fmt.Sprint(got) != "[2 1]" {
		t.Fatalf("holdLive(2) with device 0 busy = %v, want [2 1]", got)
	}
	// Every live device is held now: healthiest first.
	if got := ids(p.holdLive(4)); fmt.Sprint(got) != "[0 2 1]" {
		t.Fatalf("holdLive(4) with every device busy = %v, want [0 2 1]", got)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, want := range []int{2, 2, 2, 0} {
		if p.devs[i].busy != want {
			t.Errorf("device %d holds %d, want %d", i, p.devs[i].busy, want)
		}
	}
}

// TestSplitChannels pins the channel split: contiguous, near-even, never
// more parts than channels.
func TestSplitChannels(t *testing.T) {
	for _, tc := range []struct {
		cout, parts int
		want        [][2]int
	}{
		{8, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{7, 2, [][2]int{{0, 3}, {3, 7}}},
		{3, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{5, 1, [][2]int{{0, 5}}},
	} {
		got := splitChannels(tc.cout, tc.parts)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("splitChannels(%d, %d) = %v, want %v", tc.cout, tc.parts, got, tc.want)
		}
	}
}
