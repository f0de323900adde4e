package dynplan

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// metricsKeysFile holds the observatory's JSON key sets. Refresh it with
// go test -run TestMetricsKeys -update . only when a key is meant to
// change, and say so.
var metricsKeysFile = filepath.Join("testdata", "metrics_keys.json")

// TestMetricsKeys pins the observatory's JSON surface: the key set of a
// fully populated /metrics snapshot and of a success and a failure
// /queries record. A refactor of the registry may move where a figure
// comes from; it may not drop or rename a key a dashboard reads.
func TestMetricsKeys(t *testing.T) {
	var full MetricsSnapshot
	populate(reflect.ValueOf(&full).Elem())

	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 256, MaxConcurrent: 2})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()
	ctx := context.Background()

	// Success: a traced, governed, resilient, tenant-tagged plan-cache hit.
	p, err := e.db.Prepare(e.q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(ctx, e.binds, ExecOptions{Governed: true, Resilient: true, Tenant: "t", Trace: true}); err != nil {
		t.Fatal(err)
	}
	success := e.db.RecentQueries(1)[0]

	// Failure: a traced anonymous query whose every page read fails.
	e.db.InjectFaults(FaultConfig{Seed: 1, PermanentRate: 1})
	_, err = e.db.Exec(ctx, e.static, e.binds, ExecOptions{Trace: true})
	e.db.faults.Store(nil)
	if err == nil {
		t.Fatal("query over permanently faulted pages succeeded")
	}
	failure := e.db.RecentQueries(1)[0]
	if failure.Error == "" {
		t.Fatalf("newest record is not the failure: %+v", failure)
	}

	got := map[string][]string{
		"metrics":       jsonKeys(t, &full, true),
		"query-success": jsonKeys(t, success, false),
		"query-failure": jsonKeys(t, failure, false),
	}
	if *updateLedger {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(metricsKeysFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsKeysFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(metricsKeysFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, keys := range want {
		if !slices.Equal(got[name], keys) {
			t.Errorf("%s keys changed:\n got %v\nwant %v", name, got[name], keys)
		}
	}
}

// populate sets every exported field reachable from v to a non-zero value
// (maps and slices get one element, map keys and strings read "*"), so
// omitempty hides nothing when the value is marshalled.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				populate(v.Field(i))
			}
		}
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		populate(k)
		populate(e)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem())
	case reflect.String:
		v.SetString("*")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	}
}

// jsonKeys returns the sorted keys of v's JSON object — dotted paths into
// nested objects when deep is set, the top level otherwise.
func jsonKeys(t *testing.T, v any, deep bool) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, sub := range m {
			keys = append(keys, prefix+k)
			if nested, ok := sub.(map[string]any); ok && deep {
				walk(prefix+k+".", nested)
			}
		}
	}
	walk("", obj)
	slices.Sort(keys)
	return keys
}
