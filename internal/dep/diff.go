package dep

import (
	"fmt"
	"io"
	"sort"
)

// DiffResult lists the dependence keys present in one set but not the other
// — the tool behind input-sensitivity studies (paper §I: profiles from
// different inputs are unioned; Diff shows what each input contributed) and
// accuracy comparisons.
type DiffResult struct {
	// OnlyA are dependences present in a but missing from b.
	OnlyA []Key
	// OnlyB are dependences present in b but missing from a.
	OnlyB []Key
	// Common counts dependences present in both.
	Common int
}

// Diff compares two dependence sets by key.
func Diff(a, b *Set) DiffResult {
	var r DiffResult
	a.Range(func(k Key, _ Stats) bool {
		if _, ok := b.Lookup(k); ok {
			r.Common++
		} else {
			r.OnlyA = append(r.OnlyA, k)
		}
		return true
	})
	b.Range(func(k Key, _ Stats) bool {
		if _, ok := a.Lookup(k); !ok {
			r.OnlyB = append(r.OnlyB, k)
		}
		return true
	})
	sortKeys(r.OnlyA)
	sortKeys(r.OnlyB)
	return r
}

// Identical reports whether the diff found no differences.
func (r DiffResult) Identical() bool {
	return len(r.OnlyA) == 0 && len(r.OnlyB) == 0
}

func sortKeys(ks []Key) {
	sort.Slice(ks, func(i, j int) bool { return LessKey(ks[i], ks[j]) })
}

// DiffStreams merge-joins two binary-profile record streams by key without
// materializing either profile as a Set: the DDP1 format writes records in
// canonical LessKey order, so one record of lookahead per side suffices.
// Both streams must honor that ordering; a record out of order is reported
// as an error rather than silently misclassified. OnlyA/OnlyB come out
// already sorted (inherited from the streams).
func DiffStreams(a, b *Decoder) (DiffResult, error) {
	var r DiffResult
	type head struct {
		k  Key
		ok bool
	}
	var ha, hb head
	advance := func(d *Decoder, h *head, name string) error {
		k, _, err := d.Next()
		if err == io.EOF {
			h.ok = false
			return nil
		}
		if err != nil {
			return err
		}
		if h.ok && !LessKey(h.k, k) {
			return fmt.Errorf("dep: profile %s not in canonical order", name)
		}
		h.k, h.ok = k, true
		return nil
	}
	// Prime both heads; the order check needs the previous key, so reset ok
	// around the first pull.
	if err := advance(a, &ha, "a"); err != nil {
		return r, err
	}
	if err := advance(b, &hb, "b"); err != nil {
		return r, err
	}
	for ha.ok || hb.ok {
		switch {
		case !hb.ok || (ha.ok && LessKey(ha.k, hb.k)):
			r.OnlyA = append(r.OnlyA, ha.k)
			if err := advance(a, &ha, "a"); err != nil {
				return r, err
			}
		case !ha.ok || LessKey(hb.k, ha.k):
			r.OnlyB = append(r.OnlyB, hb.k)
			if err := advance(b, &hb, "b"); err != nil {
				return r, err
			}
		default:
			r.Common++
			if err := advance(a, &ha, "a"); err != nil {
				return r, err
			}
			if err := advance(b, &hb, "b"); err != nil {
				return r, err
			}
		}
	}
	return r, nil
}
