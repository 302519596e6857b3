// Package shard provides the consistent-hash routing and health-supervision
// layer fastd uses to split one process into N failure-isolated serving
// shards.
//
// The ring maps a session ID onto a member with classic consistent hashing:
// each member owns `replicas` virtual points on a 64-bit hash circle, a key
// hashes to a point and walks clockwise to the first virtual point of a live
// member. Fencing a member removes it from consideration WITHOUT moving the
// virtual points of the survivors, so only the fenced member's key range is
// remapped — exactly the property failover needs: killing one shard
// redistributes its sessions across the survivors while every healthy
// session keeps its owner.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// ErrShardDown is the typed refusal for a key whose shard is fenced and not
// yet remapped, or for a ring with no live members. fastd maps it to
// 503 Service Unavailable with a Retry-After header: the condition is
// transient (failover is in progress) and a short client backoff rides it
// out.
var ErrShardDown = errors.New("shard down")

// DefaultReplicas is the virtual-node count per member. 64 points per member
// keeps the maximum/mean load ratio under ~1.3 for small N, which is plenty
// for in-process shards whose cost of imbalance is queue depth, not storage.
const DefaultReplicas = 64

// Ring is a fenceable consistent-hash ring over members 0..n-1.
// All methods are safe for concurrent use.
type Ring struct {
	mu      sync.RWMutex
	n       int
	points  []ringPoint // sorted by hash
	fenced  []bool
	live    int
	version uint64 // bumped on every fence/unfence
}

type ringPoint struct {
	hash   uint64
	member int
}

// NewRing builds a ring over n members with `replicas` virtual points each
// (<=0 selects DefaultReplicas). n must be >= 1.
func NewRing(n, replicas int) *Ring {
	if n < 1 {
		panic("shard: ring needs at least one member")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		n:      n,
		points: make([]ringPoint, 0, n*replicas),
		fenced: make([]bool, n),
		live:   n,
	}
	for m := 0; m < n; m++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, v), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func pointHash(member, vnode int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "shard-%d-vnode-%d", member, vnode)
	return mix64(h.Sum64())
}

func keyHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-64a of short structured strings
// ("s17", "shard-0-vnode-3") clusters badly in the high bits that decide
// ring position; the finalizer's avalanche spreads the points evenly enough
// that 64 vnodes/member keep the load ratio reasonable.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Members returns the member count (fenced or not).
func (r *Ring) Members() int { return r.n }

// Owner resolves key to its owning live member: the first virtual point at
// or after the key's hash whose member is not fenced. With every member
// fenced it returns ErrShardDown.
func (r *Ring) Owner(key string) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.live == 0 {
		return 0, fmt.Errorf("%w: no live members", ErrShardDown)
	}
	h := keyHash(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for probed := 0; probed < len(r.points); probed++ {
		p := r.points[(idx+probed)%len(r.points)]
		if !r.fenced[p.member] {
			return p.member, nil
		}
	}
	return 0, fmt.Errorf("%w: no live members", ErrShardDown)
}

// Fence removes member m from routing. Keys it owned resolve to the next
// live member clockwise; everyone else's mapping is untouched. Fencing an
// already-fenced member is a no-op. Returns the number of live members left.
func (r *Ring) Fence(m int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m >= 0 && m < r.n && !r.fenced[m] {
		r.fenced[m] = true
		r.live--
		r.version++
	}
	return r.live
}

// Unfence restores member m to routing (its key range snaps back). No-op for
// a live member. Returns the number of live members.
func (r *Ring) Unfence(m int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m >= 0 && m < r.n && r.fenced[m] {
		r.fenced[m] = false
		r.live++
		r.version++
	}
	return r.live
}

// Fenced reports whether member m is fenced.
func (r *Ring) Fenced(m int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return m >= 0 && m < r.n && r.fenced[m]
}

// Live returns the number of unfenced members.
func (r *Ring) Live() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live
}

// Version increments on every fence/unfence; callers can use it to detect
// topology changes cheaply.
func (r *Ring) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}
