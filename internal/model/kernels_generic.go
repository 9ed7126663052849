//go:build !amd64 || purego || race

package model

// Without the AVX2 kernels every table and softmax operation runs the Go
// reference. Race builds land here too: the race detector cannot see
// memory that assembly touches.

func accumulate(t *Table, features []int, dst []float32) { t.accumulateGo(features, dst, 0) }

func addGrad(t *Table, features []int, grad []float32, lr float32) {
	t.addGradGo(features, grad, lr, 0)
}

func softmax(logits []float32, temp float64, probs []float32) { softmaxGo(logits, temp, probs) }
