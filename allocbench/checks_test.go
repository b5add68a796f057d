package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"onchip/internal/experiments"
)

// The output checks must accept the program's output as it is and
// reject a copy with one fault planted. The operations run at reduced
// scale; the checks recompute their expectations at the same scale.

// wantProblem fails unless some problem contains substr.
func wantProblem(t *testing.T, problems []string, substr string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Errorf("want a problem mentioning %q, got %q", substr, problems)
}

// mapRows rewrites the cells of the text's rows for which edit returns
// true; cells are re-joined with the report's two-space separator.
func mapRows(text string, edit func(cells []string) bool) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		cells := splitCells(line)
		if edit(cells) {
			lines[i] = strings.Join(cells, "  ")
		}
	}
	return strings.Join(lines, "\n")
}

func TestTable6Checks(t *testing.T) {
	const refs = 100_000
	res, err := experiments.Run("table6", experiments.Options{Refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	c := newTable6Checker(refs)
	check := func(res experiments.Result) []string {
		out, err := parseAllocTable(res)
		if err != nil {
			t.Fatal(err)
		}
		return c.check(out)
	}
	if bad := check(res); len(bad) > 0 {
		t.Fatalf("today's output rejected: %q", bad)
	}

	t.Run("two ranks swapped", func(t *testing.T) {
		m := res
		lines := strings.Split(res.Text, "\n")
		var at []int
		for i, l := range lines {
			if cells := splitCells(l); len(cells) == 6 && (cells[0] == "1" || cells[0] == "2") {
				at = append(at, i)
			}
		}
		lines[at[0]], lines[at[1]] = lines[at[1]], lines[at[0]]
		m.Text = strings.Join(lines, "\n")
		wantProblem(t, check(m), "has rank")
	})
	t.Run("row 1 over budget", func(t *testing.T) {
		m := res
		m.Text = mapRows(res.Text, func(cells []string) bool {
			if len(cells) == 6 && cells[0] == "1" {
				cells[4] = "250001"
				return true
			}
			return false
		})
		wantProblem(t, check(m), "over the 250000-rbe budget")
	})
	t.Run("rank 1 CPI off", func(t *testing.T) {
		m := res
		m.Text = mapRows(res.Text, func(cells []string) bool {
			if len(cells) == 6 && cells[0] == "1" {
				cells[5] = "1.000"
				return true
			}
			return false
		})
		wantProblem(t, check(m), "direct simulation")
	})
	t.Run("feasible count off by one", func(t *testing.T) {
		out, err := parseAllocTable(res)
		if err != nil {
			t.Fatal(err)
		}
		out.feasible++
		wantProblem(t, c.check(out), "brute force")
	})
}

func TestTable4Checks(t *testing.T) {
	const refs = 200_000
	res, err := experiments.Run("table4", experiments.Options{Refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	c := newTable4Checker(refs)
	check := func(text string) []string {
		rows, err := parseTable4(text)
		if err != nil {
			t.Fatal(err)
		}
		return c.check(rows)
	}
	if bad := check(res.Text); len(bad) > 0 {
		t.Fatalf("today's output rejected: %q", bad)
	}
	// bump adds 0.01 to one component cell of the first mab row.
	bump := func(col int) string {
		done := false
		return mapRows(res.Text, func(cells []string) bool {
			if done || len(cells) != 8 || cells[0] != "mab" {
				return false
			}
			v, pct, _ := strings.Cut(cells[3+col], " ")
			var f float64
			fmt.Sscan(v, &f)
			cells[3+col] = fmt.Sprintf("%.2f %s", f+0.01, pct)
			done = true
			return true
		})
	}
	t.Run("I-cache cell off by 0.01", func(t *testing.T) {
		wantProblem(t, check(bump(colICache)), "I-cache")
	})
	t.Run("D-cache cell off by 0.01", func(t *testing.T) {
		wantProblem(t, check(bump(colDCache)), "D-cache")
	})
	t.Run("row CPI off", func(t *testing.T) {
		text := mapRows(res.Text, func(cells []string) bool {
			if len(cells) == 8 && cells[0] == "IOzone" && cells[1] == "Mach" {
				cells[2] = "9.99"
				return true
			}
			return false
		})
		wantProblem(t, check(text), "1 + components")
	})
}

func TestAdviseChecks(t *testing.T) {
	seq := newAdviseSeq(7, 20_000)
	ex, err := runPass(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newAdviseChecker()
	if bad, _ := c.check(seq, ex); len(bad) > 0 {
		t.Fatalf("today's answers rejected: %q", bad)
	}
	// copyEx copies the exchanges, bodies included.
	copyEx := func() []exchange {
		out := append([]exchange(nil), ex...)
		for i := range out {
			out[i].body = bytes.Clone(out[i].body)
		}
		return out
	}

	t.Run("cache hit differs by one byte", func(t *testing.T) {
		m := copyEx()
		seen := map[int]bool{}
		for i := range m {
			if seen[m[i].req] {
				// Change one digit of the signature.
				at := bytes.Index(m[i].body, []byte(`"signature":"`)) + len(`"signature":"`)
				m[i].body[at] ^= 1
				break
			}
			seen[m[i].req] = true
		}
		bad, _ := c.check(seq, m)
		wantProblem(t, bad, "not byte-identical")
	})
	t.Run("best CPI rises with budget", func(t *testing.T) {
		// Raise every CPI of the high-budget big-space answer (and of its
		// cached repeat) above the 250k answer's best.
		var high, mid int
		for i, q := range seq.distinct {
			if q.OS == "Mach" && q.Space == "big" && q.MaxCacheAssoc == 0 {
				if q.BudgetRBE > 250_000 {
					high = i
				} else if q.BudgetRBE == 250_000 {
					mid = i
				}
			}
		}
		_, best := c.check(seq, ex)
		m := copyEx()
		for i := range m {
			if m[i].req != high {
				continue
			}
			var resp experiments.AdviseResponse
			if err := json.Unmarshal(m[i].body, &resp); err != nil {
				t.Fatal(err)
			}
			for j := range resp.Allocations {
				resp.Allocations[j].CPI += best[mid] - best[high] + 0.01
			}
			b, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			m[i].body = append(b, '\n')
		}
		bad, _ := c.check(seq, m)
		wantProblem(t, bad, "rises")
	})
	t.Run("over budget", func(t *testing.T) {
		m := copyEx()
		m[0].body = bytes.Replace(m[0].body, []byte(`"area_rbe":`), []byte(`"area_rbe":1`), 1)
		bad, _ := c.check(seq, m)
		if len(bad) == 0 {
			t.Fatal("a mangled area was accepted")
		}
	})
}

func TestAdviseSeq(t *testing.T) {
	a, b := newAdviseSeq(3, 1000), newAdviseSeq(3, 1000)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("one seed gave two sequences")
	}
	if fmt.Sprint(a.order) == fmt.Sprint(newAdviseSeq(4, 1000).order) &&
		fmt.Sprint(a.order) == fmt.Sprint(newAdviseSeq(5, 1000).order) {
		t.Error("three seeds gave one order")
	}
	first := map[int]int{}
	count := map[int]int{}
	for at, i := range a.order {
		if count[i]++; count[i] == 1 {
			first[i] = at
		}
	}
	for i := range a.distinct {
		if count[i] != 2 {
			t.Errorf("request %d sent %d times, want 2", i, count[i])
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "table6", "--trace", "2"},
		{"--workload", "table6", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%q: exit 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%q printed a result", args)
		}
	}
}
