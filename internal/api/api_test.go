package api

import (
	"encoding/json"
	"testing"
)

// TestErrorEnvelopeShape pins the error wire format byte for byte:
// error{code,message,retry_after_ms?}, generation, trace_id? — and
// nothing else.
func TestErrorEnvelopeShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   ErrorResponse
		want string
	}{
		{
			"minimal",
			ErrorResponse{Err: &Error{Code: ErrNotFound, Message: "no such file"}, Generation: 7},
			`{"error":{"code":"not_found","message":"no such file"},"generation":7}`,
		},
		{
			"retry hint and trace id",
			ErrorResponse{
				Err:        &Error{Code: ErrOverloaded, Message: "queue full", RetryAfterMS: 1000},
				Generation: 0,
				TraceID:    "abc",
			},
			`{"error":{"code":"overloaded","message":"queue full","retry_after_ms":1000},"generation":0,"trace_id":"abc"}`,
		},
	} {
		got, err := json.Marshal(&tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
