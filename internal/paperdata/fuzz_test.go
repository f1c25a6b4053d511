package paperdata

import (
	"encoding/json"
	"testing"
)

// FuzzDesignSpecJSON decodes arbitrary bytes as a DesignSpec, the wire
// shape every design-carrying API accepts: Validate, Key and String
// must never panic, and a spec that validates must keep its Key
// through a re-marshal round trip. The seed corpus (variant tiers,
// empty tier lists, old capitalized keys) is under testdata/fuzz.
func FuzzDesignSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s DesignSpec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		_ = s.String()
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
