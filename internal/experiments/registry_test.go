package experiments

import (
	"strings"
	"testing"
)

// TestSelect pins target resolution: every listed target resolves, names are
// unique, the group targets return their group in table order, and an
// unknown name is rejected with the valid list.
func TestSelect(t *testing.T) {
	seen := map[string]bool{}
	for _, target := range Targets() {
		if seen[target] {
			t.Errorf("target %q listed twice", target)
		}
		seen[target] = true
		if _, err := Select(target); err != nil {
			t.Errorf("listed target %q does not resolve: %v", target, err)
		}
	}
	for _, group := range []string{paper, ext} {
		exps, _ := Select(group)
		var got, want []string
		for _, e := range exps {
			got = append(got, e.Name)
		}
		for _, e := range experimentTable {
			if e.Group == group {
				want = append(want, e.Name)
			}
		}
		if len(want) == 0 || strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s runs %v, want its group %v", group, got, want)
		}
	}
	_, err := Select("fig9")
	if err == nil || !strings.Contains(err.Error(), "valid: "+strings.Join(Targets(), ", ")) {
		t.Errorf("unknown target error = %v, want it to list the valid targets", err)
	}
}
