package session

import "container/list"

// LRU is a string-keyed map that remembers recency of use: the one ordered
// map under fastd's idempotency table, plan cache and per-shard resident
// order. It has no capacity, lock or eviction of its own: the three callers'
// bounds differ in kind (a count cap; a cap that skips in-flight entries; an
// eviction that does I/O and may fail) and stay at the call sites.
type LRU[V any] struct {
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

func NewLRU[V any]() *LRU[V] {
	return &LRU[V]{ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the value under key and makes it the most recent.
func (l *LRU[V]) Get(key string) (v V, ok bool) {
	el, ok := l.items[key]
	if !ok {
		return v, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Put stores v under key (replacing any value there) as the most recent.
func (l *LRU[V]) Put(key string, v V) {
	if el, ok := l.items[key]; ok {
		el.Value.(*lruItem[V]).val = v
		l.ll.MoveToFront(el)
		return
	}
	l.items[key] = l.ll.PushFront(&lruItem[V]{key: key, val: v})
}

// Delete removes key and reports whether it was present.
func (l *LRU[V]) Delete(key string) bool {
	el, ok := l.items[key]
	if ok {
		l.ll.Remove(el)
		delete(l.items, key)
	}
	return ok
}

func (l *LRU[V]) Len() int { return l.ll.Len() }

// Oldest calls yield for each entry from the least recently used on, until
// yield returns false. yield may Delete the entry it was handed.
func (l *LRU[V]) Oldest(yield func(key string, v V) bool) {
	for el := l.ll.Back(); el != nil; {
		prev := el.Prev()
		it := el.Value.(*lruItem[V])
		if !yield(it.key, it.val) {
			return
		}
		el = prev
	}
}
