package pool

// Channel sharding: the golden matrix (bit-identity to one engine across
// substrates, pool sizes, and nets — including keyed readout noise, and
// concurrent requests under -race), outage degradation, and the pools New
// must refuse.

import (
	"bytes"
	"errors"
	"fmt"
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
				name := fmt.Sprintf("%s/%s/shard=channel/size=%d", net.Name, spec, size)
				p := mustPool(t, net, Options{Specs: repeatSpec(spec, size), Shard: ShardChannel})
				for r, n := range batches {
					got, err := p.ForwardBatch(poolBatch(int64(300+r), n))
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
							gots[r], errs[r] = p.ForwardBatch(poolBatch(int64(500+r), 1))
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
		Shard:               ShardChannel,
		QuarantineThreshold: 1,
		ProbeInterval:       time.Hour, // outage devices never readmit anyway
	})
	var sawErr bool
	for r := 0; r < 6; r++ {
		_, err := p.ForwardBatch(poolBatch(int64(40+r), 1))
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

// TestChannelShardRejectsHeterogeneousPool: channel ranges of one logical
// engine only make sense when every device holds the same weights, seed,
// and operating point, and when the layer's readout decomposes over
// output-channel ranges — percentile ADC calibration and the shot-fault
// guard need whole planes. New refuses such pools up front instead of
// letting every request fail as a device fault.
func TestChannelShardRejectsHeterogeneousPool(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	for _, specs := range [][]string{
		{"accelerator?workers=1", "accelerator?tiled=true,workers=1"},
		repeatSpec("accelerator?workers=1,fault=shot:1e-3,faultseed=7", 2),
		repeatSpec("accelerator?workers=1,calib=0.99", 2),
	} {
		if _, err := New(net, Options{Specs: specs, Shard: ShardChannel}); !errors.Is(err, ErrBadPool) {
			t.Fatalf("channel pool %q: err %v, want ErrBadPool", specs, err)
		}
	}
	if _, err := New(net, Options{Specs: []string{"accelerator"}, Shard: "bogus"}); !errors.Is(err, ErrBadPool) {
		t.Fatalf("bogus shard strategy: err %v, want ErrBadPool", err)
	}
}

// TestDecisionLog: the debug flag emits one greppable line per
// device/shard assignment for every strategy.
func TestDecisionLog(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	for _, tc := range []struct {
		shard string
		want  []string
	}{
		{ShardSample, []string{"mode=sample", "dev=", "samples=["}},
		{ShardChannel, []string{"mode=channel", "oc=[", "first="}},
	} {
		var buf bytes.Buffer
		var mu sync.Mutex
		w := writerFunc(func(b []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return buf.Write(b)
		})
		p := mustPool(t, net, Options{
			Specs:       repeatSpec("accelerator?workers=1", 2),
			Shard:       tc.shard,
			Debug:       true,
			DecisionLog: w,
		})
		if _, err := p.ForwardBatch(poolBatch(7, 2)); err != nil {
			t.Fatalf("shard=%s: %v", tc.shard, err)
		}
		p.Close()
		mu.Lock()
		log := buf.String()
		mu.Unlock()
		for _, needle := range tc.want {
			if !strings.Contains(log, needle) {
				t.Errorf("shard=%s: decision log misses %q:\n%s", tc.shard, needle, log)
			}
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

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
