package store

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/freq"
)

// defaultMaxOpen bounds how many tenant histories a Store keeps open
// at once; the least recently used is closed (its manifest committed)
// and transparently reopened on the next touch.
const defaultMaxOpen = 64

// tenantsDir is the subdirectory of a store's root holding one
// directory per tenant history.
const tenantsDir = "tenants"

type tenantEntry[T comparable] struct {
	st *Store[T]
	// used orders entries for LRU close; bumped on every touch.
	used uint64
}

// AppendTenant persists one summary view into id's history as a slot
// covering [start, end) — the tenant.SnapshotSink hand-off. The empty
// id is the default history (AppendSlot). The view is serialized before
// this returns, per that interface's contract.
func (st *Store[T]) AppendTenant(id string, v *freq.View[T], start, end time.Time) error {
	if id == "" {
		return st.AppendSlot(v, start, end)
	}
	st.tmu.Lock()
	defer st.tmu.Unlock()
	ts, err := st.tenantLocked(escapeTenantID(id), true)
	if err != nil {
		return err
	}
	return ts.AppendSlot(v, start, end)
}

// QueryTenantInto merges id's stored history overlapping [from, to)
// into dst under QueryInto's recycling contract (dst cleared and reused
// when big enough, else replaced; pass the result back in). The empty
// id is the default history. A tenant with no stored history answers
// like an empty range: a cleared accumulator and no error.
func (st *Store[T]) QueryTenantInto(id string, dst *freq.Sketch[T], from, to time.Time) (*freq.Sketch[T], error) {
	if id == "" {
		return st.QueryInto(dst, from, to)
	}
	st.tmu.Lock()
	defer st.tmu.Unlock()
	ts, err := st.tenantLocked(escapeTenantID(id), false)
	if err != nil {
		return dst, err
	}
	if ts == nil {
		return st.accumulator(dst, 1)
	}
	return ts.QueryInto(dst, from, to)
}

// tenantLocked returns the open history in tenants/<name> (name is a
// tenant id escaped by escapeTenantID), opening (and LRU-closing) as
// needed. create controls whether a tenant with no on-disk history gets
// a directory: appends create, queries must not litter.
//
//freq:locked(tmu)
func (st *Store[T]) tenantLocked(name string, create bool) (*Store[T], error) {
	if st.tenantsClosed {
		return nil, ErrClosed
	}
	if e, ok := st.tenants[name]; ok {
		st.tenantUse++
		e.used = st.tenantUse
		return e.st, nil
	}
	dir := filepath.Join(st.dir, tenantsDir, name)
	if !create {
		if _, err := os.Stat(dir); os.IsNotExist(err) {
			return nil, nil
		} else if err != nil {
			return nil, err
		}
	}
	for len(st.tenants) >= st.maxOpen {
		if err := st.closeLRULocked(); err != nil {
			return nil, err
		}
	}
	ts, err := open[T](dir, st.opt)
	if err != nil {
		return nil, fmt.Errorf("store: tenant history %s: %w", name, err)
	}
	ts.serde = st.serde
	ts.jobs = st.jobs
	st.tenantUse++
	st.tenants[name] = &tenantEntry[T]{st: ts, used: st.tenantUse}
	return ts, nil
}

// closeLRULocked closes the least recently touched open tenant history.
//
//freq:locked(tmu)
func (st *Store[T]) closeLRULocked() error {
	var victimName string
	var victim *tenantEntry[T]
	for name, e := range st.tenants {
		if victim == nil || e.used < victim.used {
			victimName, victim = name, e
		}
	}
	if victim == nil {
		return nil
	}
	delete(st.tenants, victimName)
	_, err := victim.st.closeHistory()
	return err
}

// closeTenants closes every open tenant history; later tenant appends
// and queries return ErrClosed.
func (st *Store[T]) closeTenants() error {
	st.tmu.Lock()
	defer st.tmu.Unlock()
	st.tenantsClosed = true
	var err error
	for name, e := range st.tenants {
		if _, e2 := e.st.closeHistory(); e2 != nil && err == nil {
			err = e2
		}
		delete(st.tenants, name)
	}
	return err
}

// hexDigits spells escape bytes. escapeTenantID maps any wire-legal
// tenant id to a filesystem-safe, collision-free directory name:
// [A-Za-z0-9_-] and non-leading '.' pass through, everything else
// (including '%' itself and a leading '.', which would otherwise hide
// the directory or collide with "..") becomes %XX.
const hexDigits = "0123456789ABCDEF"

func escapeTenantID(id string) string {
	var b []byte
	for i := 0; i < len(id); i++ {
		c := id[i]
		plain := c == '_' || c == '-' ||
			(c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
			(c == '.' && i > 0)
		if plain {
			if b != nil {
				b = append(b, c)
			}
			continue
		}
		if b == nil {
			b = append(make([]byte, 0, len(id)+8), id[:i]...)
		}
		b = append(b, '%', hexDigits[c>>4], hexDigits[c&0xF])
	}
	if b == nil {
		return id
	}
	return string(b)
}
