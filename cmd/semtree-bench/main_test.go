package main

import (
	"reflect"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 3,5")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("parseInts = %v", got)
	}
	if got, err := parseInts(""); err != nil || got != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad list accepted")
	}
}

// TestFigAllResolvesPaperRunners: `-fig all` is exactly the paper's
// evaluation — the inverse of bench's TestRunnersRegistryComplete, so a
// runner cannot join the registry without the CLI's default sweep
// growing visibly — and an id outside the registry is refused.
func TestFigAllResolvesPaperRunners(t *testing.T) {
	got, err := resolveFigs("all")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ablation-bucket", "ablation-dims", "ablation-measure", "ablation-weights",
		"complexity", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("-fig all = %v, want %v", got, want)
	}
	if got, err := resolveFigs("fig3, complexity"); err != nil || !reflect.DeepEqual(got, []string{"fig3", "complexity"}) {
		t.Fatalf("-fig fig3, complexity = %v, %v", got, err)
	}
	if _, err := resolveFigs("fig3,throughput"); err == nil {
		t.Fatal("a deleted engine runner still resolves")
	}
}
