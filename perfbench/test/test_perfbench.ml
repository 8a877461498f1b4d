(* The benchmark's summary rules: what a reported number means. *)

open Perfbench

let close = Alcotest.float 1e-9
let floats = List.map float_of_int
let range a b = floats (List.init (b - a + 1) (fun i -> a + i))

let test_median () =
  Alcotest.check close "odd" 3. (median (floats [ 5; 1; 3 ]));
  Alcotest.check close "even" 2.5 (median (floats [ 4; 1; 3; 2 ]));
  Alcotest.check close "one round" 7. (median [ 7. ]);
  Alcotest.check_raises "no rounds" (Invalid_argument "Perfbench.median: no samples")
    (fun () -> ignore (median []))

(* Expected values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q3 = Alcotest.(triple close close close) in
  Alcotest.check q3 "1..4" (1.25, 2.5, 3.75) (quartiles (range 1 4));
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25) (quartiles (range 1 10));
  Alcotest.check q3 "two samples" (0.75, 1.5, 2.25) (quartiles [ 2.; 1. ]);
  Alcotest.check q3 "one sample" (4., 4., 4.) (quartiles [ 4. ]);
  Alcotest.check close "spread of 1..10" ((8.25 -. 2.75) /. 5.5) (spread (range 1 10))

let test_percentile () =
  Alcotest.check close "p50 of 1..10" 5. (percentile (range 1 10) 50.);
  Alcotest.check close "p95 of 1..200" 190. (percentile (range 1 200) 95.);
  Alcotest.check close "p100 is the max" 200. (percentile (range 1 200) 100.);
  Alcotest.check close "p0 is the min" 1. (percentile (range 1 200) 0.)

(* The highest percentile with at least ten samples beyond it. *)
let test_tail_percentile () =
  let p = Alcotest.(option (float 0.)) in
  Alcotest.check p "200 jobs carry a p95" (Some 95.) (tail_percentile 200);
  Alcotest.check p "199 jobs do not" (Some 90.) (tail_percentile 199);
  Alcotest.check p "1000 carry a p99" (Some 99.) (tail_percentile 1000);
  Alcotest.check p "10000 carry a p99.9" (Some 99.9) (tail_percentile 10_000);
  Alcotest.check p "20 carry only the median" (Some 50.) (tail_percentile 20);
  Alcotest.check p "19 carry none" None (tail_percentile 19)

let test_valid_name () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (valid_name n))
    [ "setup_s"; "native.mops.harris_ebr"; "serve.turnaround_p95_ms"; "explore.d2.speedup"; "9-x" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (valid_name n))
    [ ""; ".mops"; "_x"; "a b"; "a/b"; "mops%"; "é"; String.make 65 'a' ];
  Alcotest.check_raises "metric rejects a bad name"
    (Invalid_argument "Perfbench.metric: bad name \"a b\"") (fun () ->
      ignore (metric "a b" "s" 1.));
  Alcotest.check_raises "metric rejects a non-finite value"
    (Invalid_argument "Perfbench.metric: x is not finite") (fun () ->
      ignore (metric "x" "s" Float.nan))

let test_result_line () =
  let module J = Era_metrics.Json in
  let line =
    result_line ~attempted:3 ~failed:0
      [ median_metric "latency_ms" "ms" [ 3.; 1.; 2. ]; metric "setup_s" "s" 0.5 ]
  in
  let j = match J.of_string line with Ok j -> j | Error e -> Alcotest.fail e in
  let get path =
    List.fold_left (fun j k -> Option.get (J.member k j)) j path
  in
  Alcotest.(check (option bool)) "correct" (Some true) (J.to_bool (get [ "correct" ]));
  Alcotest.(check (option int)) "attempted" (Some 3) (J.to_int (get [ "attempted" ]));
  Alcotest.(check (option (float 0.))) "median over rounds" (Some 2.)
    (J.to_float (get [ "metrics"; "latency_ms"; "value" ]));
  Alcotest.(check (option string)) "unit" (Some "s")
    (J.to_str (get [ "metrics"; "setup_s"; "unit" ]));
  let failed = J.of_string (result_line ~attempted:3 ~failed:1 []) in
  Alcotest.(check (option bool)) "a failed check is not correct" (Some false)
    (Option.bind (Result.to_option failed) (fun j -> Option.bind (J.member "correct" j) J.to_bool))

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "median over rounds" `Quick test_median;
          Alcotest.test_case "quartiles and spread" `Quick test_quartiles;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "metric names" `Quick test_valid_name;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
