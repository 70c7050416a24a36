package otrace

// SetMaxSpans overrides the per-trace span cap.
func (st *Store) SetMaxSpans(n int) {
	if n > 0 {
		st.mu.Lock()
		st.maxSpans = n
		st.mu.Unlock()
	}
}

// Len returns the number of retained traces.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.traces)
}
