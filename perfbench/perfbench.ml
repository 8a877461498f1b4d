(* Summary statistics and the result line shared by every phase of the
   benchmark. Kept free of the system under test so the test suite can
   pin the rules without running anything. *)

(* Wall time of [f ()], with its result. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Perfbench.median: no samples"
  | a ->
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so a spread printed here is the spread the run-to-run check
   computes. One sample gives three equal quartiles. *)
let quartiles xs =
  match sorted xs with
  | [||] -> invalid_arg "Perfbench.quartiles: no samples"
  | [| x |] -> (x, x, x)
  | a ->
    let n = Array.length a in
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median; 0 for a zero median
   (only possible for counts, never for a time). *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. The rank absorbs float error, so that
   99.9% of 10000 is rank 9990, not 9991. *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Perfbench.percentile: no samples";
  a.(max 0 (min (n - 1) (rank n p - 1)))

(* The highest reported percentile that still has at least ten samples
   above it: a tail figure resting on fewer samples is one slow job, not
   a percentile. *)
let tail_percentile n =
  List.find_opt
    (fun p -> n - rank n p >= 10)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : float list;
      (** what [value] summarizes (rounds, repetitions or jobs), for the
          within-run spread printed next to it *)
}

let metric ?samples name unit_ value =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Perfbench.metric: bad name %S" name);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Perfbench.metric: %s is not finite" name);
  { name; unit_; value; samples = Option.value samples ~default:[ value ] }

(* Median of the samples, with the samples kept for the spread. *)
let median_metric name unit_ samples =
  metric ~samples name unit_ (median samples)

let ratio a b = if b = 0. then 0. else a /. b

let pp_metric ppf m =
  let n = List.length m.samples in
  if n > 1 then begin
    let q1, _, q3 = quartiles m.samples in
    Format.fprintf ppf "%-40s %14.6g %-6s  q1 %.6g  q3 %.6g  spread %5.1f%%  n=%d"
      m.name m.value m.unit_ q1 q3 (100. *. spread m.samples) n
  end
  else Format.fprintf ppf "%-40s %14.6g %-6s" m.name m.value m.unit_

(* The last line of standard output: what the run checked and measured. *)
let result_line ~attempted ~failed metrics =
  let module J = Era_metrics.Json in
  J.to_string ~minify:true
    (J.Obj
       [
         ("correct", J.Bool (failed = 0 && attempted > 0));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ]
                  ))
                metrics) );
       ])

(* Pass/fail tally for the outputs a phase checks. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let check c ok ~what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end
