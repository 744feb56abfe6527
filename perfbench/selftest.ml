(* Self-tests of the harness's pure helpers ([Harness]): the tail
   percentile, the fixed-cost fit, the metric-name rules and caps, and
   the BENCHMARK.json round trip.  Run from the repository root:

     bash perfbench/run.sh --selftest *)

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let floats n f = List.init n f

let test_median () =
  check "median of odd count" (Harness.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median of even count" (Harness.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  check "median of nothing is nan" (Float.is_nan (Harness.median []))

let test_tail () =
  let t xs = Option.get (Harness.tail xs) in
  check "tail of nothing" (Harness.tail [] = None);
  let a = t (floats 1000 (fun i -> float_of_int (1000 - i))) in
  check "tail of 1000 is p99 with 10 beyond" (a.pct = 99.0 && a.value = 990.0 && a.beyond = 10);
  let b = t (floats 21 float_of_int) in
  check "tail of 21 is the median with 10 beyond" (b.value = 10.0 && b.beyond = 10 && b.value = Harness.median (floats 21 float_of_int));
  let c = t (floats 20 float_of_int) in
  check "tail of 20 falls back to the maximum" (c.pct = 100.0 && c.value = 19.0 && c.beyond = 0);
  let d = t (floats 528 (fun i -> float_of_int (i mod 7))) in
  check "tail of 528 has exactly 10 samples above its rank" (d.n = 528 && d.beyond = 10 && d.pct = 100.0 *. 518.0 /. 528.0);
  (* For any size from 21 up, exactly 10 samples sort above the tail's
     rank, and the tail is at or above the median. *)
  let rng = Util.Rng.create 7 in
  let ok = ref true in
  for _ = 1 to 200 do
    let n = 21 + Util.Rng.int rng 3000 in
    let xs = floats n (fun _ -> Util.Rng.float rng) in
    let r = t xs in
    let above = List.length (List.filter (fun x -> x > r.value) xs) in
    if r.beyond <> 10 || above <> 10 || r.value < Harness.median xs then ok := false
  done;
  check "tail leaves exactly 10 samples beyond it" !ok

let test_fit () =
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  let exact = List.map (fun x -> (x, 0.5e-3 +. (900e-9 *. x))) (floats 50 (fun i -> float_of_int (i * 40000))) in
  (match Harness.fit exact with
  | Some (a, b) -> check "fit recovers intercept and slope" (close a 0.5e-3 && close b 900e-9)
  | None -> check "fit recovers intercept and slope" false);
  (* Symmetric noise around the line leaves the fit on it. *)
  let noisy =
    List.concat_map
      (fun x -> [ (x, 2.0 +. (3.0 *. x) +. 0.25); (x, 2.0 +. (3.0 *. x) -. 0.25) ])
      (floats 10 float_of_int)
  in
  (match Harness.fit noisy with
  | Some (a, b) -> check "fit ignores symmetric noise" (close a 2.0 && close b 3.0)
  | None -> check "fit ignores symmetric noise" false);
  check "fit of constant x is None" (Harness.fit [ (1.0, 1.0); (1.0, 2.0) ] = None);
  check "fit of one point is None" (Harness.fit [ (1.0, 1.0) ] = None)

let test_names () =
  List.iter
    (fun n -> check ("valid name " ^ n) (Harness.valid_name n))
    [ "wall_s"; "sim.ns_per_winstr"; "proto.explore.reply_bytes"; "explore-paper"; "0x" ];
  List.iter
    (fun n -> check (Printf.sprintf "invalid name %S" n) (not (Harness.valid_name n)))
    [ ""; ".hidden"; "_x"; "a b"; "a/b"; "latency(ms)"; String.make 65 'a' ];
  check "units" (List.for_all Harness.valid_unit [ "ms"; "s"; "1/s"; "count"; "%"; "Mwords" ]);
  check "bad units" (not (List.exists Harness.valid_unit [ ""; "m s"; String.make 17 'u' ]))

let metric ?bound name = { Harness.m_name = name; m_unit = "s"; m_better = "lower"; m_bound = bound }

let spec_with ~e2e ~layers : Harness.spec =
  {
    command = [ "bash"; "perfbench/run.sh" ];
    paths = [ "perfbench" ];
    run_seconds = 10;
    workloads = [ ("a", "why a"); ("b", "why b") ];
    end_to_end = metric ~bound:0.25 "setup_s" :: List.init e2e (fun i -> metric ~bound:0.1 (Printf.sprintf "e%d" i));
    per_layer = List.init layers (fun i -> metric (Printf.sprintf "l%d" i));
  }

let roundtrip (s : Harness.spec) =
  Harness.spec_of_json
    (Result.get_ok (Util.Json.of_string (Util.Json.to_string (Harness.json_of_spec s))))

let test_caps () =
  check "15 + setup_s end-to-end metrics accepted" (Result.is_ok (roundtrip (spec_with ~e2e:15 ~layers:1)));
  check "17 end-to-end metrics refused" (Result.is_error (roundtrip (spec_with ~e2e:16 ~layers:1)));
  check "128 per-layer metrics accepted" (Result.is_ok (roundtrip (spec_with ~e2e:1 ~layers:128)));
  check "129 per-layer metrics refused" (Result.is_error (roundtrip (spec_with ~e2e:1 ~layers:129)));
  let s = spec_with ~e2e:1 ~layers:1 in
  check "bound over 0.25 refused"
    (Result.is_error (roundtrip { s with end_to_end = [ metric ~bound:0.3 "setup_s" ] }));
  check "missing setup_s refused"
    (Result.is_error (roundtrip { s with end_to_end = [ metric ~bound:0.1 "wall_s" ] }));
  check "duplicate names refused"
    (Result.is_error (roundtrip { s with per_layer = [ metric "x"; metric "x" ] }));
  check "path out of the repo refused" (Result.is_error (roundtrip { s with paths = [ "../x" ] }))

let test_benchmark_json () =
  match Harness.load_spec "BENCHMARK.json" with
  | Error e -> check ("BENCHMARK.json parses: " ^ e) false
  | Ok s ->
    check "BENCHMARK.json parses and validates" true;
    check "BENCHMARK.json round-trips" (roundtrip s = Ok s);
    check "BENCHMARK.json names its three workloads"
      (List.map fst s.workloads = [ "explore-paper"; "sweep-quick"; "serve-mixed" ])

let test_conform () =
  let declared = [ metric "a"; metric "b" ] in
  let v x = (Harness.F x, "s") in
  check "conform accepts exactly the declared set" (Harness.conform declared [ ("a", v 1.0); ("b", v 2.0) ] = Ok ());
  check "conform refuses a missing metric" (Result.is_error (Harness.conform declared [ ("a", v 1.0) ]));
  check "conform refuses an undeclared metric"
    (Result.is_error (Harness.conform declared [ ("a", v 1.0); ("b", v 1.0); ("c", v 1.0) ]));
  check "conform refuses a wrong unit"
    (Result.is_error (Harness.conform declared [ ("a", v 1.0); ("b", (Harness.F 1.0, "ms")) ]));
  check "conform refuses a non-finite value"
    (Result.is_error (Harness.conform declared [ ("a", v 1.0); ("b", v Float.nan) ]))

let run () : int =
  test_median ();
  test_tail ();
  test_fit ();
  test_names ();
  test_caps ();
  test_benchmark_json ();
  test_conform ();
  if !failures = 0 then (print_endline "selftest: all passed"; 0)
  else (Printf.printf "selftest: %d failure(s)\n" !failures; 1)
