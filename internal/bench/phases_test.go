package bench

import (
	"reflect"
	"testing"
	"time"
)

// TestParsePhases pins the -phases grammar hestress accepts: a
// comma-separated list of name:duration segments whose names are churn,
// read or stall and whose durations are positive.
func TestParsePhases(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		want    []Phase
		wantErr bool
	}{
		{name: "empty", spec: "", want: nil},
		{
			name: "valid",
			spec: "churn:300ms, read:2s,stall:1m",
			want: []Phase{
				{Name: "churn", Dur: 300 * time.Millisecond},
				{Name: "read", Dur: 2 * time.Second},
				{Name: "stall", Dur: time.Minute},
			},
		},
		{name: "unknown name", spec: "churn:1s,idle:1s", wantErr: true},
		{name: "missing duration", spec: "churn", wantErr: true},
		{name: "bad duration", spec: "churn:fast", wantErr: true},
		{name: "zero duration", spec: "read:0s", wantErr: true},
		{name: "negative duration", spec: "stall:-1s", wantErr: true},
		{name: "empty segment", spec: "churn:1s,", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParsePhases(tc.spec)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParsePhases(%q) = %v, want an error", tc.spec, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParsePhases(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParsePhases(%q) = %v, want %v", tc.spec, got, tc.want)
			}
		})
	}
}
