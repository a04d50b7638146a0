package main

import (
	"testing"

	"semtree"
)

// TestParseTenants: the README's tenant specs
// (`name:token[:admin][:quota=CAP/REFILL]`) parse to the tenant configs
// they describe, and malformed specs are refused.
func TestParseTenants(t *testing.T) {
	got, err := parseTenants(multiFlag{"acme:acme-token:quota=2000/500", "ops:ops-secret:admin"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d tenants, want 2", len(got))
	}
	acme, ops := got[0], got[1]
	if acme.Name != "acme" || acme.Token != "acme-token" || acme.Admin {
		t.Fatalf("acme = %+v", acme)
	}
	var o semtree.SearchOptions
	for _, opt := range acme.Options {
		opt(&o)
	}
	if o.K != 5 || o.Quota == nil || o.Quota.Capacity != 2000 || o.Quota.RefillPerSec != 500 {
		t.Fatalf("acme options resolve to %+v (quota %+v)", o, o.Quota)
	}
	if ops.Name != "ops" || ops.Token != "ops-secret" || !ops.Admin {
		t.Fatalf("ops = %+v", ops)
	}
	for _, bad := range []multiFlag{
		nil,                         // at least one tenant is required
		{"acme"},                    // no token
		{":token"},                  // no name
		{"acme:token:root"},         // unknown attribute
		{"acme:token:quota=2000"},   // quota without refill
		{"acme:token:quota=lots/5"}, // non-numeric capacity
	} {
		if _, err := parseTenants(bad, 5); err == nil {
			t.Errorf("parseTenants(%q) accepted a malformed spec", []string(bad))
		}
	}
}

func TestParseQuota(t *testing.T) {
	q, err := parseQuota("2000/500")
	if err != nil || q.Capacity != 2000 || q.RefillPerSec != 500 {
		t.Fatalf("parseQuota(2000/500) = %+v, %v", q, err)
	}
	for _, bad := range []string{"", "2000", "x/500", "2000/y"} {
		if _, err := parseQuota(bad); err == nil {
			t.Errorf("parseQuota(%q) accepted a malformed spec", bad)
		}
	}
}
