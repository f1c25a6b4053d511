package paperdata

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// The fmt/strings formulas DesignSpec's strings were first written
// with. The byte-slice versions in spec.go must reproduce them exactly:
// keys are cache and shard identities, and names and strings are wire
// bytes.

func oracleLabel(t TierSpec) string {
	if s := t.Stack(); s != t.Role {
		return t.Role + "/" + s
	}
	return t.Role
}

func oracleKey(s DesignSpec) string {
	parts := make([]string, len(s.Tiers))
	for i, t := range s.Tiers {
		parts[i] = fmt.Sprintf("%s:%d", oracleLabel(t), t.Replicas)
	}
	return strings.Join(parts, ";")
}

func oracleString(s DesignSpec) string {
	parts := make([]string, len(s.Tiers))
	for i, t := range s.Tiers {
		parts[i] = fmt.Sprintf("%d %s", t.Replicas, strings.ToUpper(oracleLabel(t)))
	}
	return strings.Join(parts, " + ")
}

func oracleDefaultName(dns, web, app, db int) string {
	return fmt.Sprintf("%dd%dw%da%db", dns, web, app, db)
}

func oracleCanonicalName(s DesignSpec) string {
	if d, ok := s.classic(); ok {
		return oracleDefaultName(d.DNS, d.Web, d.App, d.DB)
	}
	parts := make([]string, len(s.Tiers))
	for i, t := range s.Tiers {
		parts[i] = fmt.Sprintf("%d%s", t.Replicas, oracleLabel(t))
	}
	return strings.Join(parts, "-")
}

// checkOracle fails unless every spec string matches its fmt formula.
func checkOracle(t *testing.T, s DesignSpec) {
	t.Helper()
	if got, want := s.Key(), oracleKey(s); got != want {
		t.Errorf("Key = %q, oracle %q", got, want)
	}
	if got, want := s.String(), oracleString(s); got != want {
		t.Errorf("String = %q, oracle %q", got, want)
	}
	if got, want := s.CanonicalName(), oracleCanonicalName(s); got != want {
		t.Errorf("CanonicalName = %q, oracle %q", got, want)
	}
}

// FuzzDesignSpecJSON decodes arbitrary bytes as a DesignSpec, the wire
// shape every design-carrying API accepts: Validate, Key and String
// must never panic, Key, String and CanonicalName must equal their fmt
// oracles for every decoded spec, valid or not, and a spec that
// validates must keep its Key through a re-marshal round trip. The seed
// corpus (variant tiers, empty tier lists, old capitalized keys,
// extreme replica counts, non-ASCII roles) is under testdata/fuzz.
func FuzzDesignSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s DesignSpec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		checkOracle(t, s)
		key := s.Key()
		if s.Validate() != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("valid spec %+v does not marshal: %v", s, err)
		}
		var back DesignSpec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-marshaled spec %s does not decode: %v", out, err)
		}
		if got := back.Key(); got != key {
			t.Fatalf("key changed through a round trip: %q -> %q (%s)", key, got, out)
		}
	})
}

// TestSpecStringsMatchOracle covers the corners the byte-slice versions
// special-case: no tiers, long tier chains that outgrow the stack
// buffer, and non-ASCII labels whose upper-casing changes byte length.
func TestSpecStringsMatchOracle(t *testing.T) {
	long := DesignSpec{}
	for i := 0; i < 40; i++ {
		long.Tiers = append(long.Tiers, TierSpec{Role: RoleWeb, Replicas: math.MaxInt, Variant: RoleWebAlt})
	}
	for _, s := range []DesignSpec{
		{},
		long,
		{Tiers: []TierSpec{{Role: "ſx", Replicas: 3, Variant: "ǳ"}}}, // ſ upper-cases to one byte
		{Tiers: []TierSpec{{Role: "ıdb", Replicas: -2}}},             // ı upper-cases to ASCII I
		{Tiers: []TierSpec{{Role: "a\xffb", Replicas: 1}}},           // invalid UTF-8
		Design{DNS: -1, Web: 0, App: math.MinInt, DB: 7}.Spec(),
	} {
		checkOracle(t, s)
	}
}

// TestDefaultNameGrid pins DefaultName to its fmt formula over a grid
// of small, negative and extreme replica counts.
func TestDefaultNameGrid(t *testing.T) {
	ns := []int{math.MinInt, -10, -1, 0, 1, 2, 9, 10, 99, 100, 4096, math.MaxInt}
	for _, dns := range ns {
		for _, web := range ns {
			for _, app := range ns {
				for _, db := range ns {
					if got, want := DefaultName(dns, web, app, db), oracleDefaultName(dns, web, app, db); got != want {
						t.Fatalf("DefaultName(%d,%d,%d,%d) = %q, oracle %q", dns, web, app, db, got, want)
					}
				}
			}
		}
	}
}
