// Package d exercises lockflow's check-then-act detection.
package d

import "sync"

type cache struct {
	mu sync.RWMutex
	m  map[string]int
}

func compute(k string) int { return len(k) }

// checkThenAct is the hazard: the lock is dropped between the miss
// check and the fill, so two goroutines can both miss and both fill.
func (c *cache) checkThenAct(k string) int {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return v
	}
	v = compute(k)
	c.mu.Lock()
	c.m[k] = v // want `map c.m is checked in one critical section and filled in a later one without re-checking`
	c.mu.Unlock()
	return v
}

// doubleChecked re-reads under the write lock before filling.
func (c *cache) doubleChecked(k string) int {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[k]; ok {
		return v
	}
	v = compute(k)
	c.m[k] = v
	return v
}

// singleSection does the check and the fill under one lock.
func (c *cache) singleSection(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[k]; ok {
		return v
	}
	v := compute(k)
	c.m[k] = v
	return v
}

type twoLocks struct {
	muA, muB sync.Mutex
	a, b     map[string]int
}

// differentMutexes guards each map with its own mutex; reading a
// under muA and writing b under muB is not a check-then-act pair.
func (t *twoLocks) differentMutexes(k string) {
	t.muA.Lock()
	_, ok := t.a[k]
	t.muA.Unlock()
	if !ok {
		t.muB.Lock()
		t.b[k] = 1
		t.muB.Unlock()
	}
}

// suppressed documents a tolerated benign race.
func (c *cache) suppressed(k string) {
	c.mu.RLock()
	_, ok := c.m[k]
	c.mu.RUnlock()
	if !ok {
		c.mu.Lock()
		//lint:ignore locksafe idempotent fill; duplicate computation is acceptable here
		c.m[k] = compute(k)
		c.mu.Unlock()
	}
}
