package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// compareMain compares two sets of result records (files, or directories
// of them) per workload and trace setting: each metric's median and
// IQR ÷ median per side and the relative change of the medians. It
// refuses to compare records whose fingerprints differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <records-a> <records-b>")
		return 2
	}
	var sides [2]map[string][]record
	for i, arg := range args {
		recs, err := loadRecords(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
		sides[i] = recs
	}
	for _, key := range sortedKeys(sides[0]) {
		a, b := sides[0][key], sides[1][key]
		if len(b) == 0 {
			continue
		}
		for _, r := range append(a[1:], b...) {
			if diff := a[0].Fingerprint.comparableWith(r.Fingerprint); diff != "" {
				fmt.Fprintf(os.Stderr, "perfbench compare: %s: refusing to compare: fingerprints differ (%s)\n", key, diff)
				return 1
			}
		}
		fmt.Printf("%s (%d vs %d runs)\n", key, len(a), len(b))
		fmt.Printf("  %-28s %12s %12s %12s %12s %8s\n", "metric", "a median", "a iqr/med", "b median", "b iqr/med", "change")
		for _, name := range specOrder(a[0].Metrics) {
			va, vb := values(a, name), values(b, name)
			qa1, ma, qa3 := quartiles(va)
			qb1, mb, qb3 := quartiles(vb)
			fmt.Printf("  %-28s %12.6g %12.4f %12.6g %12.4f %+8.4f\n",
				name, ma, ratio(qa3-qa1, ma), mb, ratio(qb3-qb1, mb), ratio(mb-ma, ma))
		}
	}
	return 0
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// loadRecords reads records from a file or every *.json file in a
// directory, grouped by workload and trace setting.
func loadRecords(path string) (map[string][]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	out := map[string][]record{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		key := fmt.Sprintf("%s trace=%v", r.Fingerprint.Workload, r.Fingerprint.Trace)
		out[key] = append(out[key], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return out, nil
}
