// Fixture for the envelopecheck analyzer. The fixtures test places
// this file in cmd/geoserve, where every error response must go
// through the v1 envelope plumbing.
package fix

import "net/http"

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.WriteHeader(status) // ok: the envelope plumbing itself
	_, _, _ = status, code, msg
}

func handleBad(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "bad request", http.StatusBadRequest) // flagged: plain-text body
}

func handleWorse(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(500) // flagged: raw error status
}

func handleUnavailable(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusServiceUnavailable) // flagged
}

func handleOK(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK) // ok: success statuses are unrestricted
}

type statusWriter struct{ http.ResponseWriter }

func (w *statusWriter) WriteHeader(status int) {
	w.ResponseWriter.WriteHeader(status) // ok: allowlisted receiver
}
