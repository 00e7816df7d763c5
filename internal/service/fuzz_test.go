package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSweepRequest drives POST /v1/sweep with arbitrary bodies on a
// request whose context is already cancelled: decoding and validation
// run in full, but the sweep engine feeds no point. Every input must get
// a 400 with a JSON error or a 200 stream ending in an empty summary,
// never a panic or a 5xx, and nothing may be computed.
func FuzzSweepRequest(f *testing.F) {
	for _, tc := range badRequestCases {
		f.Add(tc.body)
	}
	for _, tc := range spaceBadRequestCases {
		f.Add(tc.body)
	}
	for _, tc := range shardBadRequestCases {
		f.Add(tc.body)
	}
	f.Add(`{"points":[{"app":"BV","topology":"L6","capacity":14},{"app":"BV@8","topology":"L2","capacity":18,"gate":"AM2","reorder":"IS"}],"workers":2}`)
	f.Add(`{"space":` + testSpaceBody + `,"limit":5,"shard":{"index":1,"count":2}}`)
	f.Add(`{"space":` + testSpaceBody + `,"shard":{"start":1,"end":4},"limit":9223372036854775807}`)

	srv, err := New(Config{MaxSweepPoints: 50})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
			var e errorBody
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("400 body %q is not an error object (%v)", rec.Body.String(), err)
			}
		case http.StatusOK:
			lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
			var summary SweepSummary
			if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil || !summary.Done || summary.Total != 0 {
				t.Fatalf("200 stream %q does not end in an empty summary (%v)", rec.Body.String(), err)
			}
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if n := srv.StoreStats().Computes; n != 0 {
			t.Fatalf("body %q computed %d points on a cancelled request", body, n)
		}
	})
}
