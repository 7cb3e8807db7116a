package aesql_test

import (
	"reflect"
	"slices"
	"testing"

	"alwaysencrypted/internal/aesql"
)

// FuzzParseDSN: ParseDSN never panics, and every DSN it accepts names only
// non-empty endpoints and renders (DSN) to a string that parses back to the
// same configuration.
func FuzzParseDSN(f *testing.F) {
	for _, c := range roundTripConfigs {
		f.Add(c.DSN())
	}
	for _, dsn := range badDSNs {
		f.Add(dsn)
	}
	f.Fuzz(func(t *testing.T, dsn string) {
		cfg, err := aesql.ParseDSN(dsn)
		if err != nil {
			return
		}
		if cfg.Primary == "" || slices.Contains(cfg.Replicas, "") {
			t.Fatalf("ParseDSN(%q) accepted an empty endpoint: %+v", dsn, cfg)
		}
		again, err := aesql.ParseDSN(cfg.DSN())
		if err != nil {
			t.Fatalf("ParseDSN(%q) rejects the rendering %q of its own result: %v", dsn, cfg.DSN(), err)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("ParseDSN(%q) = %+v, but its rendering %q parses to %+v", dsn, cfg, cfg.DSN(), again)
		}
	})
}
