// Package lru is the module's one recency-ordered map: it sits under fastd's
// plan cache, the session registry's per-shard resident order, and Hemera's
// key pool and shared evk cache.
package lru

import "container/list"

// Map is a string-keyed map that remembers recency of use. It has no
// capacity, lock or eviction of its own: the callers' bounds differ in kind
// (a count cap; a cap that skips in-flight entries; an eviction that does I/O
// and may fail; a byte budget) and stay at the call sites.
type Map[V any] struct {
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

func New[V any]() *Map[V] {
	return &Map[V]{ll: list.New(), items: map[string]*list.Element{}}
}

// Has reports whether key is present, without touching recency.
func (l *Map[V]) Has(key string) bool {
	_, ok := l.items[key]
	return ok
}

// Get returns the value under key and makes it the most recent.
func (l *Map[V]) Get(key string) (v V, ok bool) {
	el, ok := l.items[key]
	if !ok {
		return v, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Put stores v under key (replacing any value there) as the most recent.
func (l *Map[V]) Put(key string, v V) {
	if el, ok := l.items[key]; ok {
		el.Value.(*lruItem[V]).val = v
		l.ll.MoveToFront(el)
		return
	}
	l.items[key] = l.ll.PushFront(&lruItem[V]{key: key, val: v})
}

// Delete removes key and reports whether it was present.
func (l *Map[V]) Delete(key string) bool {
	el, ok := l.items[key]
	if ok {
		l.ll.Remove(el)
		delete(l.items, key)
	}
	return ok
}

func (l *Map[V]) Len() int { return l.ll.Len() }

// Oldest calls yield for each entry from the least recently used on, until
// yield returns false. yield may Delete the entry it was handed.
func (l *Map[V]) Oldest(yield func(key string, v V) bool) {
	for el := l.ll.Back(); el != nil; {
		prev := el.Prev()
		it := el.Value.(*lruItem[V])
		if !yield(it.key, it.val) {
			return
		}
		el = prev
	}
}
