package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/history"
	"statefulcc/internal/obs"
)

// stdoutOf runs a subcommand and returns what it printed and its error (a
// regression report arrives as the error).
func stdoutOf(t *testing.T, run func(args []string) error, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s[err: %v]", out, runErr)
}

// TestReadersAcrossTheSegmentBoundary: a history is two files, and no reader
// can tell where one ends. The three builds of internal/history/testdata are
// split older | active at every position, each side in each of the three
// shapes a record has been written in, with and without a corrupt line in
// the middle of a segment, and every reader — LoadFS, LoadLast, `history
// -n`, `explain`, `regress`, `profile`, /builds?n= and /dash — gives what it
// gives on one file holding the three. A corrupt line inside a segment is no
// append's business either: the next record lands with the next Seq.
func TestReadersAcrossTheSegmentBoundary(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	stateDir := filepath.Dir(srv.histPath)
	older := history.OlderPath(srv.histPath)

	answers := func(t *testing.T) map[string]string {
		t.Helper()
		got := map[string]string{}
		text := func(recs []history.Record, err error) string {
			out, jerr := json.Marshal(recs)
			return fmt.Sprintf("%s[err: %v %v]", out, err, jerr)
		}
		got["LoadFS"] = text(history.LoadFS(nil, srv.histPath))
		for n := 1; n <= 4; n++ {
			got[fmt.Sprintf("LoadLast(%d)", n)] = text(history.LoadLast(srv.histPath, n))
		}
		for _, n := range []string{"0", "1", "2", "20"} {
			got["history -n "+n] = stdoutOf(t, runHistory, "-cache", stateDir, "-n", n)
		}
		for _, unit := range []string{"", "src/b.mc", "src/c.mc"} {
			got["explain "+unit] = stdoutOf(t, runExplain, "-cache", stateDir, unit)
		}
		got["regress"] = stdoutOf(t, runRegress, "-cache", stateDir, "-skip-drop", "5")
		got["regress -window 1"] = stdoutOf(t, runRegress, "-cache", stateDir, "-window", "1")
		for seq := 0; seq <= 4; seq++ {
			rec, err := loadTimelineRecord(srv.histPath, seq)
			var cp *obs.CritPath
			if err == nil {
				cp, err = profileOf(rec)
			}
			if err != nil {
				got[fmt.Sprintf("profile -build %d", seq)] = "[err: " + err.Error() + "]"
				continue
			}
			var page strings.Builder
			renderProfile(&page, rec, cp)
			got[fmt.Sprintf("profile -build %d", seq)] = page.String()
		}
		for _, url := range []string{"/builds", "/builds?n=1", "/builds?n=2", "/builds?n=3", "/dash"} {
			res, err := ts.Client().Get(ts.URL + url)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil || res.StatusCode != 200 {
				t.Fatalf("%s: status %d, err %v", url, res.StatusCode, err)
			}
			got[url] = string(body)
		}
		return got
	}

	shapes := []string{"history_pr20.jsonl", "history_pr21.jsonl", "history_pr23.jsonl"}
	lines := map[string][][]byte{}
	for _, file := range shapes {
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", "history", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if lines[file] = bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")); len(lines[file]) != 3 {
			t.Fatalf("%s has %d lines", file, len(lines[file]))
		}
		lines[file][2] = append(lines[file][2], '\n')
	}
	// write puts the first split lines of one shape into the older segment
	// (none: no such file) and the rest of the other into the active one, a
	// corrupt line after the first line of any segment of two or more.
	write := func(t *testing.T, olderShape, activeShape string, split int, corrupt bool) {
		t.Helper()
		segment := func(path string, ls [][]byte) {
			if corrupt && len(ls) >= 2 {
				ls = append([][]byte{ls[0], []byte("{not json}\n\n")}, ls[1:]...)
			}
			os.Remove(path)
			if len(ls) == 0 && path == older {
				return
			}
			if err := os.WriteFile(path, bytes.Join(ls, nil), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		segment(older, lines[olderShape][:split])
		segment(srv.histPath, lines[activeShape][split:])
	}

	write(t, shapes[2], shapes[2], 0, false)
	want := answers(t)
	for surface, text := range map[string]string{
		"LoadLast(2)": `[{"seq":2,`, "history -n 0": "\n", "explain src/b.mc": "fingerprint-mismatch",
		"regress": "REGRESSION: skip rate dropped", "profile -build 1": "5 compiled", "profile -build 4": "no record with seq 4",
		"/builds?n=3": `[{"seq":1,`, "/dash": "build <b>#3</b>",
	} {
		if !strings.Contains(want[surface], text) {
			t.Fatalf("%s on one file lacks %q:\n%s", surface, text, want[surface])
		}
	}

	for _, olderShape := range shapes {
		for _, activeShape := range shapes {
			for split := 0; split <= 3; split++ {
				for _, corrupt := range []bool{false, true} {
					name := fmt.Sprintf("%s[:%d] | %s[%d:], corrupt line: %v", olderShape, split, activeShape, split, corrupt)
					write(t, olderShape, activeShape, split, corrupt)
					got := answers(t)
					for surface, text := range want {
						if got[surface] != text {
							t.Errorf("%s: %s gives\n%s\non one file:\n%s", name, surface, got[surface], text)
						}
					}
					if split == 3 {
						continue // an empty active segment has no middle to be corrupt in
					}
					rec := &history.Record{Mode: "stateful", Metrics: map[string]int64{}, Units: map[string]history.UnitRecord{}}
					if err := history.Append(srv.histPath, rec, 0); err != nil || rec.Seq != 4 {
						t.Errorf("%s: the next append got Seq %d, err %v; want 4", name, rec.Seq, err)
					}
					if recs, err := history.Load(srv.histPath); err != nil || len(recs) != 4 || recs[3].Seq != 4 {
						t.Errorf("%s: %d records after the append (err %v), want the three and the new one", name, len(recs), err)
					}
				}
			}
		}
	}
}
