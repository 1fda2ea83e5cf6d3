package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
	"gpunoc/internal/resultstore"
)

// parseResultRequest is the fuzz oracle: the key and format a result
// request names, or ok=false when the request must be refused.
func parseResultRequest(gpuName, exp, format, quick string) (key resultstore.Key, fmtName string, ok bool) {
	cfg, err := gpu.ByName(gpuName)
	if err != nil {
		return key, "", false
	}
	e, err := core.Lookup(exp)
	if err != nil || !e.SupportsGPU(cfg.Name) {
		return key, "", false
	}
	if format == "" {
		format = "json"
	}
	if _, known := contentTypes[format]; !known {
		return key, "", false
	}
	var q bool
	if quick != "" {
		if q, err = strconv.ParseBool(quick); err != nil {
			return key, "", false
		}
	}
	return resultstore.Key{GPU: cfg.Name, Exp: e.ID, Quick: q}, format, true
}

// FuzzHandleResult sends arbitrary (gpu, exp, format, quick) strings
// through the route table. Every answer must be 200, 400 or 404 without
// a panic; a well-formed tuple must be a 200 whose body is the stub's
// rendering of exactly the key and format the request names, and any
// other tuple must be refused.
func FuzzHandleResult(f *testing.F) {
	f.Add("v100", "fig1", "", "")
	f.Add("v100", "fig1", "json", "1")
	f.Add("a100", "fig9", "csv", "true")
	f.Add("H100", "fig18", "md", "false")
	f.Add("v100", "fig1", "text", "yes")
	f.Add("v100", "fig19", "json", "0")
	f.Add("gtx480", "fig1", "xml", "")
	f.Add("v100", "table1", "", "T")

	store, err := resultstore.New(resultstore.Options{Compute: stubCompute})
	if err != nil {
		f.Fatal(err)
	}
	h := newServer(store, obs.New(), serverConfig{}).handler()

	f.Fuzz(func(t *testing.T, gpuName, exp, format, quick string) {
		for _, seg := range []string{gpuName, exp} {
			if seg == "" || seg == "." || seg == ".." {
				// The mux redirects empty and dot segments to the cleaned
				// path before routing; they never reach handleResult.
				return
			}
		}
		target := "http://nocserve/v1/" + url.PathEscape(gpuName) + "/" + url.PathEscape(exp) +
			"?" + url.Values{"format": {format}, "quick": {quick}}.Encode()
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			t.Fatalf("building %q: %v", target, err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		key, fmtName, ok := parseResultRequest(gpuName, exp, format, quick)
		switch rec.Code {
		case http.StatusOK:
			if !ok {
				t.Fatalf("%s: 200 for a request that names no valid key", target)
			}
			want, _ := stubCompute(key)
			wantBody := map[string][]byte{"json": want.JSON, "csv": want.CSV, "text": want.Text, "md": want.Markdown}[fmtName]
			if got := rec.Body.String(); got != string(wantBody) {
				t.Fatalf("%s: body %q, want %q", target, got, wantBody)
			}
		case http.StatusBadRequest, http.StatusNotFound:
			if ok {
				t.Fatalf("%s: status %d for valid key %s format %s", target, rec.Code, key, fmtName)
			}
		default:
			t.Fatalf("%s: status %d, want 200, 400 or 404", target, rec.Code)
		}
	})
}
