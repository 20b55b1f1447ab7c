package mlfit

// KFoldMSEShared returns, for each column cols[m] of members, the
// k-fold CV error KFoldMSE returns for the single-feature matrix
// X[i] = [cols[m][i]]: KFoldMSEAtoms with one atom per sample, on a
// fresh workspace.
func (p *CVPlan) KFoldMSEShared(cols [][]float64, members []int, y []float64) ([]float64, int, error) {
	return p.kFoldMSEShared(cols, members, y, nil)
}

// kFoldMSEShared is KFoldMSEShared; a non-nil fallbacks gains the
// count of nodes the bins grower of every CV grown left to the
// row-level search.
func (p *CVPlan) kFoldMSEShared(cols [][]float64, members []int, y []float64, fallbacks *int) ([]float64, int, error) {
	w, of, all := new(CVWorkspace), make([]int32, p.n), make([]float64, len(cols))
	for i := range of {
		of[i] = int32(i)
	}
	grown, err := p.KFoldMSEAtoms(w, Atoms{Cols: cols, Of: of}, members, y, all)
	if err != nil {
		return nil, 0, err
	}
	if fallbacks != nil {
		*fallbacks += w.fallbacks
	}
	mses := make([]float64, len(members))
	for j, m := range members {
		mses[j] = all[m]
	}
	return mses, grown, nil
}
