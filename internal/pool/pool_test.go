package pool

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/fault"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

func poolNets() []*nn.Network {
	return []*nn.Network{
		nn.SmallCNN([2]int{4, 8}, 10, 99),
		nn.AlexNetS(10, 99),
	}
}

func poolBatch(seed int64, n int) *tensor.Tensor {
	x := tensor.New(n, 3, 16, 16)
	x.RandN(rand.New(rand.NewSource(seed)), 1)
	return x
}

func repeatSpec(spec string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = spec
	}
	return out
}

func mustPool(t *testing.T, net *nn.Network, opts Options) *DevicePool {
	t.Helper()
	p, err := New(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestPoolGoldenMatchesSingleEngine is the sharding acceptance matrix: a
// pool of same-spec devices serving a sequence of batched requests is
// bit-identical to ONE engine of that spec serving the same sequence —
// including the noisy operating point, whose readout substreams are keyed
// by call index. Pool size, shard boundaries, and device choice must all be
// invisible.
func TestPoolGoldenMatchesSingleEngine(t *testing.T) {
	specs := []string{
		"accelerator?workers=1",
		"accelerator?tiled=true,workers=1",
		"accelerator-noisy?workers=1",
	}
	batches := []int{1, 5, 8}
	for _, net := range poolNets() {
		for _, spec := range specs {
			// One reference engine serving every request in order.
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
				w, err := single.ForwardBatch(poolBatch(int64(100+r), n))
				if err != nil {
					t.Fatal(err)
				}
				wants = append(wants, w)
			}
			for _, size := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/size=%d", net.Name, spec, size)
				p := mustPool(t, net, Options{Specs: repeatSpec(spec, size)})
				for r, n := range batches {
					got, err := p.ForwardBatch(poolBatch(int64(100+r), n))
					if err != nil {
						t.Fatalf("%s: request %d: %v", name, r, err)
					}
					want := wants[r]
					if len(got.Data) != len(want.Data) {
						t.Fatalf("%s: request %d: size %d vs %d", name, r, len(got.Data), len(want.Data))
					}
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%s: request %d diverged at %d: %v vs %v", name, r, i, got.Data[i], want.Data[i])
						}
					}
				}
				p.Close()
			}
		}
	}
}

// TestPoolStride pins the sharding stride to the networks' engine-backed
// layer counts — the quantity the keying proof rests on.
func TestPoolStride(t *testing.T) {
	for _, tc := range []struct {
		net    *nn.Network
		stride uint64
	}{
		{nn.SmallCNN([2]int{4, 8}, 10, 99), 2},
		{nn.AlexNetS(10, 99), 3},
	} {
		p := mustPool(t, tc.net, Options{Specs: repeatSpec("accelerator?workers=1", 2)})
		if p.stride != tc.stride {
			t.Errorf("%s: stride %d, want %d", tc.net.Name, p.stride, tc.stride)
		}
		if p.BatchInvariant() != true {
			t.Errorf("%s: noise-free pool must be batch-invariant", tc.net.Name)
		}
		p.Close()
	}
}

// TestPoolChaosOutageMidRun is the chaos acceptance scenario: one of four
// devices dies mid-run (call-indexed outage on the shared logical
// frontier). Every request must complete with bit-exact results, and the
// dead device must end up quarantined while the pool keeps serving.
func TestPoolChaosOutageMidRun(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	healthy := "accelerator?workers=1"
	dying := "accelerator?workers=1,fault=outage:30,faultseed=3"
	eng, err := backend.Open(healthy)
	if err != nil {
		t.Fatal(err)
	}
	single, err := net.Compile(eng)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 1: the health score already steers shards away from a
	// faulted device, so on one CPU it may never accumulate a longer
	// consecutive-fault run — one outage fault is enough evidence here.
	p := mustPool(t, net, Options{
		Specs:               append(repeatSpec(healthy, 3), dying),
		QuarantineThreshold: 1,
		ProbeInterval:       time.Millisecond,
	})
	const requests, batch = 24, 6
	for r := 0; r < requests; r++ {
		x := poolBatch(int64(500+r), batch)
		want, err := single.ForwardBatch(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ForwardBatch(x)
		if err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("request %d diverged at %d", r, i)
			}
		}
	}
	rows := p.DeviceHealth()
	if rows[3].State != "quarantined" {
		t.Fatalf("dying device not quarantined: %+v", rows[3])
	}
	if rows[3].Faults == 0 {
		t.Fatalf("dying device shows no faults: %+v", rows[3])
	}
	c := p.Counters()
	if c.Quarantines == 0 || c.Exhausted != 0 {
		t.Fatalf("counters: %+v", c)
	}
	if p.Live() != 3 {
		t.Fatalf("live %d, want 3", p.Live())
	}
	if eb := p.EffectiveBatch(8); eb != 6 {
		t.Fatalf("EffectiveBatch(8) = %d with 3/4 live, want 6", eb)
	}
}

// TestPoolConcurrentChaos hammers a pool (one device dying mid-run) from
// many goroutines; every request must complete with zero wrong answers —
// verified against per-request single-engine results, which is exact
// because the substrate is noise-free.
func TestPoolConcurrentChaos(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	healthy := "accelerator?workers=1"
	eng, err := backend.Open(healthy)
	if err != nil {
		t.Fatal(err)
	}
	single, err := net.Compile(eng)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPool(t, net, Options{
		Specs:               append(repeatSpec(healthy, 3), "accelerator?workers=1,fault=outage:20,faultseed=9"),
		QuarantineThreshold: 1,
		ProbeInterval:       time.Millisecond,
	})
	const clients, perClient = 4, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				n := 1 + (c+r)%4
				x := poolBatch(int64(c*100+r), n)
				got, err := p.ForwardBatch(x)
				if err != nil {
					t.Errorf("client %d request %d: %v", c, r, err)
					return
				}
				want, err := single.ForwardBatch(x)
				if err != nil {
					t.Errorf("client %d request %d reference: %v", c, r, err)
					return
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("client %d request %d wrong answer at %d", c, r, i)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if c := p.Counters(); c.Exhausted != 0 {
		t.Fatalf("requests exhausted: %+v", c)
	}
}

// TestPoolExhausted: when every device is dead and quarantined, a request
// fails with ErrPoolExhausted still carrying the device-fault chain.
func TestPoolExhausted(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p := mustPool(t, net, Options{
		Specs:               repeatSpec("accelerator?workers=1,fault=outage:1,faultseed=1", 2),
		QuarantineThreshold: 1,
	})
	_, err := p.ForwardBatch(poolBatch(1, 2))
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err %v, want ErrPoolExhausted", err)
	}
	if !errors.Is(err, fault.ErrDeviceFault) {
		t.Fatalf("err %v lost the device-fault chain", err)
	}
	if p.Live() != 0 {
		t.Fatalf("live %d, want 0", p.Live())
	}
	if eb := p.EffectiveBatch(8); eb != 1 {
		t.Fatalf("EffectiveBatch(8) = %d with no live devices, want 1", eb)
	}
	// Second request fails fast on the empty pool.
	if _, err := p.ForwardBatch(poolBatch(2, 1)); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("empty-pool err %v, want ErrPoolExhausted", err)
	}
	if c := p.Counters(); c.Exhausted < 2 {
		t.Fatalf("exhausted counter %d, want >= 2", c.Exhausted)
	}
}

// TestPoolProbeReadmit exercises the probe/readmit half of the state
// machine deterministically: a healthy device is forced into quarantine,
// then one probe pass readmits it (canary succeeds) and it serves again.
func TestPoolProbeReadmit(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p := mustPool(t, net, Options{
		Specs:         repeatSpec("accelerator?workers=1", 2),
		ProbeInterval: time.Hour, // probes only when invoked directly
	})
	if _, err := p.ForwardBatch(poolBatch(1, 2)); err != nil {
		t.Fatal(err) // also records the canary
	}
	p.mu.Lock()
	p.devs[1].health.Quarantined = true
	p.devs[1].health.ConsecFaults = 3
	p.mu.Unlock()
	if p.Live() != 1 {
		t.Fatalf("live %d, want 1", p.Live())
	}
	p.probeQuarantined()
	p.mu.Lock()
	h := p.devs[1].health
	p.mu.Unlock()
	if h.Quarantined || h.ConsecFaults != 0 {
		t.Fatalf("device not readmitted: %+v", h)
	}
	c := p.Counters()
	if c.Probes != 1 || c.Readmits != 1 {
		t.Fatalf("counters after readmit: %+v", c)
	}
	if _, err := p.ForwardBatch(poolBatch(2, 2)); err != nil {
		t.Fatalf("post-readmit request: %v", err)
	}
}

// TestLadder walks the health ladder the pool and the fleet simulator share:
// the first latency seeds the EWMA, a fault run reaching the threshold
// quarantines exactly once, a success clears the run, and readmission
// needs a quarantined device.
func TestLadder(t *testing.T) {
	var l Ladder
	if l.Observe(100, false, 2) || l.EWMANs != 100 || l.ConsecFaults != 1 {
		t.Fatalf("first fault: %+v", l)
	}
	if !l.Observe(200, false, 2) || !l.Quarantined || l.EWMANs != 120 {
		t.Fatalf("second fault must quarantine: %+v", l)
	}
	if l.Observe(200, false, 2) || l.ConsecFaults != 3 {
		t.Fatalf("a quarantined device cannot be quarantined again: %+v", l)
	}
	if l.Score() != HealthScore(l.EWMANs, 3) {
		t.Fatalf("score %v", l.Score())
	}
	if !l.Readmit() || l.Quarantined || l.ConsecFaults != 0 || l.Readmit() {
		t.Fatalf("readmit: %+v", l)
	}
	l.ConsecFaults = 1
	if l.Observe(0, true, 2) || l.ConsecFaults != 0 {
		t.Fatalf("a success must clear the fault run: %+v", l)
	}
}

// TestPoolProbeKeepsDeadDeviceOut: a permanently dead device keeps failing
// its canary probes and never flaps back into rotation.
func TestPoolProbeKeepsDeadDeviceOut(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p := mustPool(t, net, Options{
		Specs:               []string{"accelerator?workers=1", "accelerator?workers=1,fault=outage:1,faultseed=1"},
		QuarantineThreshold: 1,
		ProbeInterval:       time.Hour,
	})
	// Drive requests until the dead device has faulted and been quarantined.
	for r := 0; r < 4; r++ {
		if _, err := p.ForwardBatch(poolBatch(int64(r), 2)); err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
	}
	if p.Live() != 1 {
		t.Fatalf("live %d after outage, want 1", p.Live())
	}
	for i := 0; i < 3; i++ {
		p.probeQuarantined()
	}
	if p.Live() != 1 {
		t.Fatal("dead device flapped back in despite failing probes")
	}
	rows := p.DeviceHealth()
	if rows[1].State != "quarantined" || rows[1].Probes != 3 || rows[1].Readmits != 0 {
		t.Fatalf("dead device row: %+v", rows[1])
	}
	if rows[1].LastError == "" {
		t.Fatalf("dead device should surface its last error: %+v", rows[1])
	}
}

// TestPoolValidation pins New's rejection surface.
func TestPoolValidation(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	bad := []Options{
		{},
		{Specs: []string{"no-such-backend"}},
		{Specs: []string{"accelerator?nta=-3"}},
		{Specs: []string{"accelerator"}, MaxShards: -1},
		{Specs: []string{"accelerator"}, ProbeInterval: -1},
	}
	for _, opts := range bad {
		if _, err := New(net, opts); !errors.Is(err, ErrBadPool) {
			t.Errorf("New(%+v) err %v, want ErrBadPool", opts, err)
		}
	}
	if _, err := New(nil, Options{Specs: []string{"accelerator"}}); !errors.Is(err, ErrBadPool) {
		t.Errorf("nil network accepted: %v", err)
	}
}

// TestPoolClosed: ForwardBatch on a closed pool fails fast with
// ErrPoolClosed; Close is idempotent.
func TestPoolClosed(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p, err := New(net, Options{Specs: []string{"accelerator?workers=1"}})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	if _, err := p.ForwardBatch(poolBatch(1, 1)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err %v, want ErrPoolClosed", err)
	}
}

// TestPoolHeterogeneousSpecs: devices of different specs still shard the
// noise-free contract correctly (results equal the single-engine reference
// of either spec when both are exact substrates at the same operating
// point is NOT generally true; what must hold is that every request
// completes and shapes are right).
func TestPoolHeterogeneousSpecs(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p := mustPool(t, net, Options{
		Specs: []string{"accelerator?workers=1", "accelerator?tiled=true,workers=1"},
	})
	out, err := p.ForwardBatch(poolBatch(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[0] != 4 || out.Shape[1] != 10 {
		t.Fatalf("output shape %v, want [4 10]", out.Shape)
	}
}

// fakeClock is a concurrency-safe clock that advances by step on every
// reading.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// TestPoolTimingReadsInjectedClock: shard timing reads the pool's clock,
// not the wall clock, so EWMA latency and busy time are exact on a fake
// clock that advances 1 ms per reading. A sample shard reads it twice
// (1 ms); a channel-shard request reads it twice per CPU step and twice per
// phase of every range step.
func TestPoolTimingReadsInjectedClock(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	never := func(time.Duration) <-chan time.Time { return make(chan time.Time) }
	for _, shard := range []string{ShardSample, ShardChannel} {
		t.Run(shard, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
			p := mustPool(t, net, Options{
				Specs: []string{"accelerator?workers=1"},
				Shard: shard,
				now:   clk.now,
				after: never,
			})
			if _, err := p.ForwardBatch(poolBatch(5, 2)); err != nil {
				t.Fatal(err)
			}
			want := time.Millisecond
			if shard == ShardChannel {
				want = 0
				for _, s := range p.devs[0].chanSteps {
					if s.Range == nil {
						want += time.Millisecond
					} else {
						want += 2 * time.Millisecond
					}
				}
			}
			row := p.DeviceHealth()[0]
			if row.EWMALatency != want || row.Busy != want {
				t.Fatalf("EWMALatency %v, Busy %v, want both %v", row.EWMALatency, row.Busy, want)
			}
		})
	}
}
