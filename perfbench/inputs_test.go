package main

import (
	"reflect"
	"testing"
)

func TestOnboardPlanSeeded(t *testing.T) {
	in, err := newInputs()
	if err != nil {
		t.Fatal(err)
	}
	summary := func(seed int64) (shapes []shape, removed []bool) {
		plan, err := in.onboardPlan(seed, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range plan {
			shapes = append(shapes, tp.Shape)
			removed = append(removed, tp.Remove)
		}
		return shapes, removed
	}
	s1, r1 := summary(7)
	s2, r2 := summary(7)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("the same seed generated different trainers")
	}
	if s3, _ := summary(8); reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds generated the same trainers")
	}

	// Every pass draws the same cost mix and removes one small trainer.
	in3, _ := newInputs()
	plan, err := in3.onboardPlan(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	classOf := func(s shape) string {
		for name, c := range map[string]costClass{"small": classSmall, "mid": classMid, "heavy": classHeavy, "paper": classPaper} {
			for _, cs := range c {
				if cs == s {
					return name
				}
			}
		}
		return "none"
	}
	for p := 0; p < 3; p++ {
		count := map[string]int{}
		removedSmall := 0
		for _, tp := range plan[p*len(passLayout) : (p+1)*len(passLayout)] {
			count[classOf(tp.Shape)]++
			if tp.Remove {
				if classOf(tp.Shape) != "small" {
					t.Errorf("pass %d removes a %s trainer", p, classOf(tp.Shape))
				}
				removedSmall++
			}
		}
		want := map[string]int{"small": smallSlots, "mid": 3, "heavy": 2, "paper": 2}
		if !reflect.DeepEqual(count, want) || removedSmall != 1 {
			t.Errorf("pass %d: classes %v with %d removals, want %v with 1", p, count, removedSmall, want)
		}
	}
}

func TestProfilesShared(t *testing.T) {
	in, err := newInputs()
	if err != nil {
		t.Fatal(err)
	}
	a, err := in.profile(shape{"gpt3-1.3b", 4, 4, 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.profile(shape{"gpt3-1.3b", 4, 16, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("shapes with one model and stage count should share a profile")
	}
	if a.Bytes <= 0 || len(a.Ms) == 0 || a.Prof == nil {
		t.Fatalf("empty profile input %+v", a)
	}
}

func TestControlAndPlacementInputsSeeded(t *testing.T) {
	if !reflect.DeepEqual(controlPlan(3, 5000), controlPlan(3, 5000)) {
		t.Fatal("control: the same seed generated different inputs")
	}
	if reflect.DeepEqual(controlPlan(3, 5000).ops, controlPlan(4, 5000).ops) {
		t.Fatal("control: different seeds generated the same operations")
	}
	ci := controlPlan(3, 50*offeredRate)
	writes, binding, lifted := 0, 0, 0
	var pending *ctrlOp // a round's schedule read, waiting for its plan read
	for i, op := range ci.ops {
		switch {
		case i%offeredRate == 0:
			if op.kind != opScrape {
				t.Errorf("op %d: kind %d, want the once-a-second scrape", i, op.kind)
			}
		case i%offeredRate == offeredRate/2:
			if op.kind != opLedger {
				t.Errorf("op %d: kind %d, want the once-a-second ledger read", i, op.kind)
			}
		case op.kind == opStraggler:
			writes++
		case op.kind == opCap:
			writes++
			if op.capFrac > 0 {
				binding++
			} else {
				lifted++
			}
			if binding-lifted != 0 && binding-lifted != 1 {
				t.Fatalf("op %d: cap writes do not alternate a binding cap with none", i)
			}
		case op.kind == opSchedule:
			if pending != nil {
				t.Fatalf("op %d: a schedule read before the previous round's plan read", i)
			}
			pending = &ci.ops[i]
		case op.kind == opPlan:
			if pending == nil || pending.job != op.job {
				t.Fatalf("op %d: a plan read outside a round of its job", i)
			}
			pending = nil
		}
	}
	if share := float64(writes) / float64(len(ci.ops)); share < 0.7*writeShare || share > 1.3*writeShare {
		t.Errorf("writes are %.4f of operations, want about %g", share, writeShare)
	}
	h1, r1 := placementPlan(5, 100)
	h2, r2 := placementPlan(5, 100)
	if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("placement: the same seed generated different inputs")
	}
	seen := map[placeReq]bool{}
	for _, r := range r1 {
		if seen[r] {
			t.Fatalf("placement request %+v repeats: it would be served from a cache", r)
		}
		seen[r] = true
	}
	// Each block covers every sixteenth of the deadline range once.
	for b := 0; b+placementBlock <= len(r1); b += placementBlock {
		var hit [placementBlock]bool
		for _, r := range r1[b : b+placementBlock] {
			hit[int((r.DeadlineS/3600-deadlineMinH)/deadlineSpanH*placementBlock)] = true
		}
		for k, ok := range hit {
			if !ok {
				t.Fatalf("block at %d misses deadline stratum %d", b, k)
			}
		}
	}
}
