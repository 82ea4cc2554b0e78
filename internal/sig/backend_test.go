package sig

import (
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	good := []string{
		"signature",
		"signature:slots=1m",
		"hybrid:slots=1m,exact=4096,promote=8",
		"a.b-c_d:x=1,y=2k",
	}
	for _, s := range good {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", s, err)
			continue
		}
		if sp.String() != s {
			t.Errorf("ParseSpec(%q).String() = %q", s, sp.String())
		}
	}
	bad := []string{
		"", ":", "name:", "name:slots", "name:slots=", "name:=1",
		"name:a=1,a=2", "na me", "name:k v=1", "name:k=v,,k2=v",
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestSpecInt(t *testing.T) {
	sp, err := ParseSpec("x:a=64k,b=2m,c=1g,d=123")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  string
		want int
	}{{"a", 64 << 10}, {"b", 2 << 20}, {"c", 1 << 30}, {"d", 123}, {"missing", 77}} {
		got, err := sp.Int(tc.key, 77)
		if err != nil || got != tc.want {
			t.Errorf("Int(%q) = %d, %v; want %d", tc.key, got, err, tc.want)
		}
	}
}

func TestOpenStore(t *testing.T) {
	// Empty spec falls back to the default signature backend.
	st, err := OpenStore("", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*Signature); !ok {
		t.Errorf("default backend = %T, want *Signature", st)
	}
	if _, err := OpenStore("no-such-backend", 0); err == nil ||
		!strings.Contains(err.Error(), "no-such-backend") {
		t.Errorf("unknown backend error = %v", err)
	}
	if _, err := OpenStore("perfect:slots=4", 0); err == nil {
		t.Error("perfect accepted a parameter it does not understand")
	}
	if _, err := OpenStore("signature:bogus=1", 0); err == nil {
		t.Error("signature accepted an unknown parameter")
	}
}

func TestEstimateStoreBytes(t *testing.T) {
	b, bounded, err := EstimateStoreBytes("signature:slots=1024", 0)
	if err != nil || !bounded {
		t.Fatalf("signature estimate: %d, %v, %v", b, bounded, err)
	}
	// One directory entry plus one fully touched 1024-slot page.
	if want := uint64(dirEntryBytes + 2*1024*slotBytes); b != want {
		t.Errorf("signature bytes = %d, want %d", b, want)
	}
	if _, bounded, err := EstimateStoreBytes("perfect", 0); err != nil || bounded {
		t.Errorf("perfect must be unbounded, got bounded=%v err=%v", bounded, err)
	}
}

// FuzzBackendSpec: ParseSpec must never panic, and any spec it accepts must
// survive a String round trip — re-parsing the canonical form succeeds and
// renders identically.
func FuzzBackendSpec(f *testing.F) {
	for _, s := range []string{
		"", "signature", "signature:slots=1m", "perfect",
		"hybrid:slots=1m,exact=4096", "a:b=c", "a:b=c,d=e",
		":", "x:", "x:=", "x:y=", "x:y=z,y=w", "x y", "x:k=1k,j=2g",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		out := sp.String()
		sp2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", out, s, err)
		}
		if sp2.String() != out {
			t.Fatalf("round trip unstable: %q -> %q -> %q", s, out, sp2.String())
		}
	})
}
