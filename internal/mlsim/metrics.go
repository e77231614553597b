package mlsim

import (
	"math"
	"sort"
)

// DetectionMetrics summarises a binary anomaly-detection run
// (Figure 11's per-scenario bars).
type DetectionMetrics struct {
	AUC       float64 // area under the ROC curve
	Accuracy  float64 // at the threshold maximising TPR-FPR
	TPR       float64
	FPR       float64
	Threshold float64
	EER       float64 // equal error rate
}

// EvaluateScores computes ROC-based detection metrics from anomaly
// scores and binary labels (1 = malicious).
func EvaluateScores(scores []float64, labels []uint8) DetectionMetrics {
	type sl struct {
		s float64
		y uint8
	}
	n := len(scores)
	pairs := make([]sl, n)
	var pos, neg float64
	for i := range scores {
		pairs[i] = sl{scores[i], labels[i]}
		if labels[i] == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return DetectionMetrics{}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].s > pairs[b].s })

	var auc, tp, fp float64
	var bestJ float64 = math.Inf(-1)
	var m DetectionMetrics
	eer := math.Inf(1)
	prevFPR, prevTPR := 0.0, 0.0
	i := 0
	for i < n {
		// Process ties together.
		j := i
		for j < n && pairs[j].s == pairs[i].s {
			if pairs[j].y == 1 {
				tp++
			} else {
				fp++
			}
			j++
		}
		tpr, fpr := tp/pos, fp/neg
		auc += (fpr - prevFPR) * (tpr + prevTPR) / 2
		if jstat := tpr - fpr; jstat > bestJ {
			bestJ = jstat
			m.TPR, m.FPR, m.Threshold = tpr, fpr, pairs[i].s
			m.Accuracy = (tpr*pos + (1-fpr)*neg) / (pos + neg)
		}
		if d := math.Abs(fpr - (1 - tpr)); d < eer {
			eer = d
			m.EER = (fpr + (1 - tpr)) / 2
		}
		prevFPR, prevTPR = fpr, tpr
		i = j
	}
	auc += (1 - prevFPR) * (1 + prevTPR) / 2
	m.AUC = auc
	return m
}

// ClassificationAccuracy scores a multi-class prediction run.
func ClassificationAccuracy(pred, truth []int) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	ok := 0
	for i := range pred {
		if pred[i] == truth[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(pred))
}
