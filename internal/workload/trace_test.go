package workload

import (
	"reflect"
	"testing"
	"time"
)

func arrivalConfig(seed int64) ArrivalConfig {
	return ArrivalConfig{
		Duration:   10 * time.Second,
		RatePerSec: 20,
		Tasks:      16,
		Lengths:    DefaultLengthSampler(256),
		Seed:       seed,
	}
}

func TestGenerateArrivalsDeterministic(t *testing.T) {
	cfg := arrivalConfig(42)
	cfg.Shape = BurstShape(0.4, 0.6, 3)
	a := GenerateArrivals(cfg)
	b := GenerateArrivals(cfg)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	cfg.Seed = 43
	c := GenerateArrivals(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateArrivalsSortedAndBounded(t *testing.T) {
	cfg := arrivalConfig(7)
	arrivals := GenerateArrivals(cfg)
	for i, a := range arrivals {
		if a.At < 0 || a.At >= cfg.Duration {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, a.At, cfg.Duration)
		}
		if i > 0 && a.At < arrivals[i-1].At {
			t.Fatalf("arrivals out of order at %d", i)
		}
		if a.Task < 0 || a.Task >= cfg.Tasks {
			t.Fatalf("arrival %d task %d outside pool", i, a.Task)
		}
		if a.TargetLen < 1 {
			t.Fatalf("arrival %d has no length draw", i)
		}
	}
}

func TestBurstShapeRaisesBurstWindowRate(t *testing.T) {
	cfg := arrivalConfig(11)
	cfg.Duration = 60 * time.Second
	cfg.Shape = BurstShape(0.25, 0.5, 4)
	arrivals := GenerateArrivals(cfg)
	burstStart := time.Duration(0.25 * float64(cfg.Duration))
	burstEnd := time.Duration(0.5 * float64(cfg.Duration))
	var inBurst, before int
	for _, a := range arrivals {
		switch {
		case a.At >= burstStart && a.At < burstEnd:
			inBurst++
		case a.At < burstStart:
			before++
		}
	}
	// Both windows span a quarter of the trace; the burst runs at 4x.
	if inBurst <= 2*before {
		t.Fatalf("burst window not denser: %d in burst vs %d before", inBurst, before)
	}
}

func TestGenerateArrivalsDegenerateConfigs(t *testing.T) {
	if GenerateArrivals(ArrivalConfig{}) != nil {
		t.Fatal("zero config should yield nil")
	}
	cfg := arrivalConfig(1)
	cfg.Shape = func(float64) float64 { return 0 }
	if GenerateArrivals(cfg) != nil {
		t.Fatal("all-zero shape should yield nil")
	}
}
