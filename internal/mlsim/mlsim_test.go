package mlsim

import (
	"math"
	"math/rand"
	"testing"
)

func TestAutoencoderLearnsBenignManifold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ae := NewAutoencoder(4, 3, 0.2, rng)
	// Benign: points near (1, 2, 3, 4) with small noise.
	benign := func() []float64 {
		return []float64{
			1 + rng.NormFloat64()*0.05,
			2 + rng.NormFloat64()*0.05,
			3 + rng.NormFloat64()*0.05,
			4 + rng.NormFloat64()*0.05,
		}
	}
	for i := 0; i < 3000; i++ {
		ae.Train(benign())
	}
	var benignScore float64
	for i := 0; i < 50; i++ {
		benignScore += ae.Score(benign())
	}
	benignScore /= 50
	anomaly := ae.Score([]float64{4, 1, 0.5, 0.1})
	if anomaly <= benignScore*1.5 {
		t.Errorf("anomaly score %g not separated from benign %g", anomaly, benignScore)
	}
}

func TestKitsuneEnsembleDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const dim = 25
	ens, err := NewKitsuneEnsemble(dim, rng)
	if err != nil {
		t.Fatal(err)
	}
	benign := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = float64(i) + rng.NormFloat64()*0.1
		}
		return v
	}
	for i := 0; i < 2000; i++ {
		ens.Train(benign())
	}
	if ens.Trained() != 2000 {
		t.Errorf("trained = %d", ens.Trained())
	}
	var b float64
	for i := 0; i < 50; i++ {
		b += ens.Score(benign())
	}
	b /= 50
	attack := make([]float64, dim)
	for i := range attack {
		attack[i] = float64(dim - i) // reversed profile
	}
	if a := ens.Score(attack); a <= b*1.2 {
		t.Errorf("attack score %g vs benign %g", a, b)
	}
}

func TestKitsuneEnsembleValidation(t *testing.T) {
	if _, err := NewKitsuneEnsemble(0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero dimension accepted")
	}
	// Dimensions under one group still work.
	ens, err := NewKitsuneEnsemble(3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ens.Train([]float64{1, 2, 3})
	_ = ens.Score([]float64{1, 2, 3})
}

func TestKNN(t *testing.T) {
	knn := NewKNN(3)
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {10, 10}, {10, 11}, {11, 10}}
	y := []int{0, 0, 0, 1, 1, 1}
	if err := knn.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if knn.Predict([]float64{0.5, 0.5}) != 0 {
		t.Error("near-origin point misclassified")
	}
	if knn.Predict([]float64{10.5, 10.5}) != 1 {
		t.Error("far point misclassified")
	}
	if err := knn.Fit(x, y[:2]); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestCentroid(t *testing.T) {
	c := NewCentroid()
	// Directionally distinct classes (centroid uses L2-normalised
	// space).
	x := [][]float64{{1, 0}, {0.9, 0.1}, {0, 1}, {0.1, 0.9}}
	y := []int{0, 0, 1, 1}
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if c.Predict([]float64{5, 0.5}) != 0 {
		t.Error("x-direction point misclassified")
	}
	if c.Predict([]float64{0.5, 5}) != 1 {
		t.Error("y-direction point misclassified")
	}
}

func TestDecisionTree(t *testing.T) {
	dt := NewDecisionTree(4, 1)
	// XOR-ish but axis-separable data.
	var x [][]float64
	var y []int
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a, b := r.Float64(), r.Float64()
		lbl := 0
		if a > 0.5 {
			lbl = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, lbl)
	}
	if err := dt.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if dt.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(x)) < 0.95 {
		t.Errorf("tree accuracy %d/%d on separable data", correct, len(x))
	}
	if err := dt.Fit(nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestEvaluateScoresPerfect(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.7, 0.2, 0.1}
	labels := []uint8{1, 1, 1, 0, 0}
	m := EvaluateScores(scores, labels)
	if m.AUC != 1.0 {
		t.Errorf("perfect AUC = %g", m.AUC)
	}
	if m.Accuracy != 1.0 || m.TPR != 1.0 || m.FPR != 0.0 {
		t.Errorf("perfect metrics: %+v", m)
	}
}

func TestEvaluateScoresRandom(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n := 4000
	scores := make([]float64, n)
	labels := make([]uint8, n)
	for i := range scores {
		scores[i] = r.Float64()
		labels[i] = uint8(r.Intn(2))
	}
	m := EvaluateScores(scores, labels)
	if math.Abs(m.AUC-0.5) > 0.05 {
		t.Errorf("random AUC = %g, want ≈0.5", m.AUC)
	}
}

func TestEvaluateScoresInverted(t *testing.T) {
	// Scores anti-correlated with labels → AUC ≈ 0.
	scores := []float64{0.1, 0.2, 0.3, 0.8, 0.9}
	labels := []uint8{1, 1, 1, 0, 0}
	m := EvaluateScores(scores, labels)
	if m.AUC > 0.1 {
		t.Errorf("inverted AUC = %g", m.AUC)
	}
}

func TestEvaluateScoresDegenerate(t *testing.T) {
	m := EvaluateScores([]float64{1, 2}, []uint8{1, 1})
	if m.AUC != 0 {
		t.Error("single-class input should yield zero metrics")
	}
}

func TestEvaluateScoresTies(t *testing.T) {
	// All scores equal: AUC must be 0.5 by the trapezoid tie rule.
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []uint8{1, 0, 1, 0}
	m := EvaluateScores(scores, labels)
	if math.Abs(m.AUC-0.5) > 1e-9 {
		t.Errorf("tied AUC = %g", m.AUC)
	}
}

func TestClassificationAccuracy(t *testing.T) {
	if a := ClassificationAccuracy([]int{1, 2, 3}, []int{1, 2, 4}); math.Abs(a-2.0/3) > 1e-9 {
		t.Errorf("accuracy = %g", a)
	}
	if ClassificationAccuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	if ClassificationAccuracy([]int{1}, []int{1, 2}) != 0 {
		t.Error("mismatched lengths should be 0")
	}
}
