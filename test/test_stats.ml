(* Tests for svs_stats: histograms, timelines, series. *)

module Histogram = Svs_stats.Histogram
module Timeline = Svs_stats.Timeline
module Series = Svs_stats.Series

(* --- Histogram --- *)

let test_histogram_counts () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 2; 3; 3; 3 ];
  Alcotest.(check int) "total" 6 (Histogram.count h);
  Alcotest.(check int) "bucket 3" 3 (Histogram.bucket_count h 3);
  Alcotest.(check int) "bucket missing" 0 (Histogram.bucket_count h 9);
  Alcotest.(check (list (pair int int))) "buckets" [ (1, 1); (2, 2); (3, 3) ] (Histogram.buckets h)

let test_histogram_fractions () =
  let h = Histogram.create () in
  Histogram.add_many h 0 50;
  Histogram.add_many h 10 50;
  Alcotest.(check (float 1e-9)) "fraction" 0.5 (Histogram.fraction h 0);
  Alcotest.(check (float 1e-9)) "cumulative at 0" 0.5 (Histogram.fraction_le h 0);
  Alcotest.(check (float 1e-9)) "cumulative at 10" 1.0 (Histogram.fraction_le h 10);
  Alcotest.(check (float 1e-9)) "cumulative below" 0.0 (Histogram.fraction_le h (-1))

let test_histogram_percentile () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h i
  done;
  Alcotest.(check int) "p50" 50 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p99" 99 (Histogram.percentile h 99.0);
  Alcotest.(check int) "p100" 100 (Histogram.percentile h 100.0)

let test_histogram_mean_minmax () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 2; 4; 6 ];
  Alcotest.(check (float 1e-9)) "mean" 4.0 (Histogram.mean h);
  Alcotest.(check (option int)) "min" (Some 2) (Histogram.min_bucket h);
  Alcotest.(check (option int)) "max" (Some 6) (Histogram.max_bucket h)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check (option int)) "min" None (Histogram.min_bucket h);
  Alcotest.check_raises "percentile on empty"
    (Invalid_argument "Histogram.percentile: empty histogram") (fun () ->
      ignore (Histogram.percentile h 50.0))

(* --- Timeline --- *)

let test_timeline_mean () =
  let tl = Timeline.create () in
  (* value 0 on [0,1), 10 on [1,3), 20 on [3,4) *)
  Timeline.set tl ~time:1.0 10.0;
  Timeline.set tl ~time:3.0 20.0;
  Timeline.finish tl ~time:4.0;
  Alcotest.(check (float 1e-9)) "duration" 4.0 (Timeline.duration tl);
  Alcotest.(check (float 1e-9)) "time-weighted mean" ((0.0 +. 20.0 +. 20.0) /. 4.0)
    (Timeline.mean tl);
  Alcotest.(check (float 1e-9)) "max" 20.0 (Timeline.max_value tl)

let test_timeline_fraction_at () =
  let tl = Timeline.create ~value:1.0 () in
  Timeline.set tl ~time:2.0 0.0;
  Timeline.set tl ~time:3.0 1.0;
  Timeline.finish tl ~time:5.0;
  Alcotest.(check (float 1e-9)) "time at 1" 4.0 (Timeline.time_at tl (fun v -> v = 1.0));
  Alcotest.(check (float 1e-9)) "fraction at 1" 0.8 (Timeline.fraction_at tl (fun v -> v = 1.0))

let test_timeline_monotonic () =
  let tl = Timeline.create () in
  Timeline.set tl ~time:2.0 1.0;
  Alcotest.check_raises "non-monotonic set"
    (Invalid_argument "Timeline: non-monotonic time 1 < 2") (fun () ->
      Timeline.set tl ~time:1.0 2.0)

let test_timeline_zero_span_segments () =
  let tl = Timeline.create () in
  Timeline.set tl ~time:0.0 5.0;
  Timeline.set tl ~time:0.0 7.0;
  Timeline.finish tl ~time:2.0;
  Alcotest.(check (float 1e-9)) "only final value counts" 7.0 (Timeline.mean tl)

(* --- Series --- *)

let test_series_lookup_and_map () =
  let s = Series.make ~label:"a" [ (1.0, 10.0); (2.0, 20.0) ] in
  Alcotest.(check (option (float 1e-9))) "lookup" (Some 20.0) (Series.y_at s 2.0);
  Alcotest.(check (option (float 1e-9))) "missing" None (Series.y_at s 3.0);
  let doubled = Series.map_y (fun y -> 2.0 *. y) s in
  Alcotest.(check (option (float 1e-9))) "mapped" (Some 40.0) (Series.y_at doubled 2.0)

let test_series_of_histogram () =
  let h = Histogram.create () in
  Histogram.add_many h 1 75;
  Histogram.add_many h 2 25;
  let s = Series.of_histogram ~label:"h" h in
  Alcotest.(check (option (float 1e-9))) "normalised %" (Some 75.0) (Series.y_at s 1.0);
  let raw = Series.of_histogram ~label:"h" ~normalise:false h in
  Alcotest.(check (option (float 1e-9))) "raw count" (Some 25.0) (Series.y_at raw 2.0)

let test_series_to_csv () =
  let a = Series.make ~label:"reliable" [ (1.0, 10.0); (2.0, 20.0) ] in
  let b = Series.make ~label:"with,comma" [ (1.0, 5.0) ] in
  let csv = Series.to_csv ~x_label:"rate" [ a; b ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header quotes the comma" "rate,reliable,\"with,comma\""
    (List.hd lines);
  Alcotest.(check bool) "missing cell empty" true
    (Astring.String.is_suffix ~affix:"," (List.nth lines 2))

let test_series_render_aligns_columns () =
  let a = Series.make ~label:"reliable" [ (1.0, 10.0); (2.0, 20.0) ] in
  let b = Series.make ~label:"semantic" [ (1.0, 5.0) ] in
  let out = Format.asprintf "%a" (fun ppf () -> Series.render ~x_label:"x" ppf [ a; b ]) () in
  Alcotest.(check bool) "mentions both labels" true
    (Astring.String.is_infix ~affix:"reliable" out
    && Astring.String.is_infix ~affix:"semantic" out);
  Alcotest.(check bool) "dash for missing point" true (Astring.String.is_infix ~affix:"-" out)

let () =
  Alcotest.run "svs_stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "fractions" `Quick test_histogram_fractions;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentile;
          Alcotest.test_case "mean/min/max" `Quick test_histogram_mean_minmax;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "time-weighted mean" `Quick test_timeline_mean;
          Alcotest.test_case "fraction_at" `Quick test_timeline_fraction_at;
          Alcotest.test_case "monotonicity enforced" `Quick test_timeline_monotonic;
          Alcotest.test_case "zero-span segments" `Quick test_timeline_zero_span_segments;
        ] );
      ( "series",
        [
          Alcotest.test_case "lookup and map" `Quick test_series_lookup_and_map;
          Alcotest.test_case "of_histogram" `Quick test_series_of_histogram;
          Alcotest.test_case "render" `Quick test_series_render_aligns_columns;
          Alcotest.test_case "csv" `Quick test_series_to_csv;
        ] );
    ]
