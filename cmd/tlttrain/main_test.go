package main

import (
	"testing"

	"fastrl/internal/gpu"
)

// TestParseModelTP pins the tensor-parallel resolution: an explicit -tp
// wins, even when it equals the 7B models' degree of 2, and 0 (the flag
// unset) takes the model's degree.
func TestParseModelTP(t *testing.T) {
	cases := []struct {
		model    string
		tp       int
		wantArch gpu.Arch
		wantTP   int
	}{
		{"qwen7b", 0, gpu.Qwen7B, 2},
		{"qwen7b", 4, gpu.Qwen7B, 4},
		{"qwen32b", 0, gpu.Qwen32B, 4},
		{"qwen32b", 2, gpu.Qwen32B, 2},
		{"llama70b", 0, gpu.Llama70B, 8},
		{"llama70b", 2, gpu.Llama70B, 2},
	}
	for _, c := range cases {
		arch, tp, err := parseModel(c.model, c.tp)
		if err != nil {
			t.Fatalf("%s -tp %d: %v", c.model, c.tp, err)
		}
		if arch.Name != c.wantArch.Name || tp != c.wantTP {
			t.Errorf("%s -tp %d: got %s at TP=%d, want %s at TP=%d",
				c.model, c.tp, arch.Name, tp, c.wantArch.Name, c.wantTP)
		}
	}
	if _, _, err := parseModel("qwen7b", -1); err == nil {
		t.Error("negative -tp accepted")
	}
	if _, _, err := parseModel("gpt2", 0); err == nil {
		t.Error("unknown model accepted")
	}
}
