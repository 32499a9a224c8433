package daemon

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
)

// The /jobs API rides the observability server's mux (metrics.Server
// .Handle), so one listener serves attack jobs and their telemetry:
//
//	POST   /jobs        submit a JobSpec    → 202 JobStatus
//	GET    /jobs        list jobs           → 200 {"jobs": [JobStatus]}
//	GET    /jobs/{id}   one job             → 200 JobStatus
//	DELETE /jobs/{id}   cancel/evict        → 202 JobStatus
//
// Admission failures (queue full, draining) return 503 so submitters
// can back off and retry against another instance; malformed specs 400;
// unknown IDs 404; cancelling a terminal job 409.

// maxSpecBytes bounds the POST body; specs are a handful of scalars.
const maxSpecBytes = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeSpec parses one POST /jobs body: at most maxSpecBytes of JSON
// naming only JobSpec fields, resolved against the data directory
// (resolveSpec). It is the whole path from outside bytes to an accepted
// spec, and FuzzSubmitSpec fuzzes it.
func decodeSpec(dataDir string, body io.Reader) (spec JobSpec, resumedFrom string, err error) {
	dec := json.NewDecoder(io.LimitReader(body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, "", err
	}
	return resolveSpec(dataDir, spec)
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, req *http.Request) {
	spec, resumedFrom, err := decodeSpec(d.cfg.DataDir, req.Body)
	if err != nil {
		d.reg.Counter(MetricJobsRejected, "reason", "invalid").Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := d.enqueue(spec, resumedFrom)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := d.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (d *Daemon) handleGet(w http.ResponseWriter, req *http.Request) {
	j := d.Job(req.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("daemon: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (d *Daemon) handleCancel(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	err := d.Cancel(id)
	switch {
	case errors.Is(err, os.ErrNotExist):
		writeError(w, http.StatusNotFound, errors.New("daemon: no such job"))
		return
	case err != nil:
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusAccepted, d.Job(id).Status())
}
