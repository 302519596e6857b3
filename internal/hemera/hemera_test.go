package hemera

import (
	"strings"
	"testing"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/costmodel"
)

func TestPoolLRU(t *testing.T) {
	p := NewPool(100)
	if p.Request("a", 40) {
		t.Error("first request should miss")
	}
	if !p.Request("a", 40) {
		t.Error("second request should hit")
	}
	p.Request("b", 40)
	if p.Used() != 80 {
		t.Errorf("used = %d, want 80", p.Used())
	}
	// c (40) forces eviction of the LRU entry, which is a (b was touched
	// later... a was touched more recently than b? a was requested twice,
	// then b: LRU order is b oldest after a's second touch). Touch a to be
	// explicit.
	p.Request("a", 40)
	p.Request("c", 40)
	if p.Contains("b") {
		t.Error("b should have been evicted as LRU")
	}
	if !p.Contains("a") || !p.Contains("c") {
		t.Error("a and c should be resident")
	}
	if p.Used() != 80 {
		t.Errorf("used = %d, want 80 after eviction", p.Used())
	}
}

func TestPoolOversizedKeyStreams(t *testing.T) {
	p := NewPool(10)
	if p.Request("big", 100) {
		t.Error("oversized key cannot hit")
	}
	if p.Used() != 0 {
		t.Error("oversized key must not be retained")
	}
	if p.Request("big", 100) {
		t.Error("oversized key misses every time")
	}
}

// Multi-key LRU eviction: eviction stops as soon as the incoming key fits,
// and when one key is not enough it continues strictly from the LRU end.
func TestPoolEvictionOrderUnderPressure(t *testing.T) {
	p := NewPool(100)
	p.Request("a", 30)
	p.Request("b", 30)
	p.Request("c", 30) // order MRU->LRU: c b a
	p.Request("a", 30) // touch a: a c b
	if p.Len() != 3 || p.Used() != 90 {
		t.Fatalf("resident %d keys / %d bytes, want 3/90", p.Len(), p.Used())
	}
	// A 40-byte key evicts exactly the LRU key b (freeing 30 is enough);
	// c survives because eviction stops as soon as the key fits.
	p.Request("d", 40)
	if p.Contains("b") {
		t.Error("b (LRU) should have been evicted first")
	}
	if !p.Contains("a") || !p.Contains("c") || !p.Contains("d") {
		t.Error("a, c and d should be resident")
	}
	if p.Used() != 100 {
		t.Errorf("used = %d, want 100", p.Used())
	}
	// A further 40-byte key at full occupancy needs two evictions, strictly
	// from the LRU end (order MRU->LRU is now d a c): c goes, then a.
	p.Request("e", 40)
	if p.Contains("c") || p.Contains("a") {
		t.Error("c and a should have been evicted in LRU order")
	}
	if !p.Contains("d") || !p.Contains("e") {
		t.Error("d (recent) and e (incoming) should be resident")
	}
	if p.Used() != 80 {
		t.Errorf("used = %d, want 80", p.Used())
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	d := aether.Decision{Method: costmodel.KLSS, Hoist: 4}
	if r.Predicts(10, d) {
		t.Error("empty recorder cannot predict")
	}
	r.Record(10, d)
	if !r.Predicts(10, d) {
		t.Error("recorder should predict a repeated pattern")
	}
	if r.Predicts(10, aether.Decision{Method: costmodel.Hybrid, Hoist: 4}) {
		t.Error("different method must not match")
	}
	if r.Predicts(11, d) {
		t.Error("different level must not match")
	}
}

// Re-recording a level overwrites its pattern, and a hoist change under the
// same method is a different pattern.
func TestRecorderLevelReuseAndDecisionFlip(t *testing.T) {
	r := NewRecorder()
	hybrid := aether.Decision{Method: costmodel.Hybrid, Hoist: 1}
	klss4 := aether.Decision{Method: costmodel.KLSS, Hoist: 4}

	// Level reuse: re-recording the same level overwrites, not accumulates.
	r.Record(3, hybrid)
	r.Record(3, klss4)
	if r.Predicts(3, hybrid) {
		t.Error("overwritten pattern must not predict")
	}
	if !r.Predicts(3, klss4) {
		t.Error("latest pattern must predict")
	}

	// Decision flip: same method, different hoist is a different pattern.
	klss8 := aether.Decision{Method: costmodel.KLSS, Hoist: 8}
	if r.Predicts(3, klss8) {
		t.Error("hoist flip must break the prediction")
	}
	r.Record(3, klss8)
	if !r.Predicts(3, klss8) || r.Predicts(3, klss4) {
		t.Error("recorder must track the flipped decision")
	}

	// Levels are independent.
	if r.Predicts(4, klss8) {
		t.Error("level 4 was never recorded")
	}
}

func TestManagerTransfers(t *testing.T) {
	m := NewManager(1<<20, nil) // 1 MB pool, no config file
	d := aether.Decision{Method: costmodel.Hybrid, Hoist: 1}

	tr := m.RequestKey("hybrid/rot1", 512<<10, 5, d)
	if tr.Hit || tr.Bytes != 512<<10 {
		t.Fatalf("first request: %+v", tr)
	}
	if tr.Prefetched {
		t.Error("no config file and no history: not prefetched")
	}
	wantBatches := int((512<<10 + BatchBytes - 1) / BatchBytes)
	if tr.Batches != wantBatches {
		t.Errorf("batches = %d, want %d", tr.Batches, wantBatches)
	}

	tr = m.RequestKey("hybrid/rot1", 512<<10, 5, d)
	if !tr.Hit || tr.Bytes != 0 || tr.Batches != 0 {
		t.Fatalf("second request should hit: %+v", tr)
	}

	// Same level pattern on a different key: history predicts it.
	tr = m.RequestKey("hybrid/rot2", 512<<10, 5, d)
	if !tr.Prefetched {
		t.Error("history recorder should predict the repeated level pattern")
	}
}

func TestManagerWithConfigFilePrefetches(t *testing.T) {
	cfg := &aether.ConfigFile{Workload: "w"}
	m := NewManager(1<<20, cfg)
	tr := m.RequestKey("hybrid/relin", 100, 3, aether.Decision{})
	if !tr.Prefetched {
		t.Error("config-file-driven requests are prefetched")
	}
}

func TestManagerEmptyKey(t *testing.T) {
	m := NewManager(100, nil)
	if tr := m.RequestKey("", 10, 0, aether.Decision{}); tr.Bytes != 0 || tr.Hit {
		t.Error("empty key id should be a no-op")
	}
}

func TestAddressesStable(t *testing.T) {
	m := NewManager(1<<20, nil)
	a1 := m.Address("k1", 100)
	a2 := m.Address("k2", 100)
	if a1 == a2 {
		t.Error("distinct keys need distinct addresses")
	}
	if m.Address("k1", 100) != a1 {
		t.Error("address must be stable")
	}
}

func TestManagerString(t *testing.T) {
	m := NewManager(1<<20, nil)
	m.RequestKey("k", 100, 0, aether.Decision{})
	s := m.String()
	if !strings.Contains(s, "hemera") {
		t.Errorf("String() = %q", s)
	}
	if m.PoolUsed() != 100 {
		t.Errorf("PoolUsed = %d", m.PoolUsed())
	}
}

func TestManagerDecisionLookup(t *testing.T) {
	cfg := &aether.ConfigFile{Decisions: []aether.Decision{{OpIndex: 2, Method: costmodel.KLSS, Hoist: 8}}}
	m := NewManager(1, cfg)
	if d := m.Decision(2); d.Method != costmodel.KLSS || d.Hoist != 8 {
		t.Error("decision lookup failed")
	}
	if d := m.Decision(0); d.Method != costmodel.Hybrid {
		t.Error("default decision should be hybrid")
	}
}

// The RequestKey hit path allocates nothing: a resident key costs a map
// lookup and an LRU touch.
func TestRequestKeyHitZeroAllocs(t *testing.T) {
	m := NewManager(1<<20, nil)
	d := aether.Decision{Method: costmodel.Hybrid, Hoist: 1}
	m.RequestKey("warm", 1<<10, 0, d) // populate the pool
	allocs := testing.AllocsPerRun(100, func() {
		m.RequestKey("warm", 1<<10, 0, d) // pure hit path
	})
	if allocs != 0 {
		t.Errorf("hit path allocates %.0f objects per request, want 0", allocs)
	}
}
