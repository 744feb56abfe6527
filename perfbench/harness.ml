(* Pure helpers of the benchmark runner: order statistics, the
   fixed-cost least-squares fit, the metric-name rules and the
   BENCHMARK.json schema.  Nothing here touches the program under
   test, so the self-tests ([Selftest]) cover all of it. *)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted_array (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median (xs : float list) : float =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A tail latency: the highest percentile that still has at least ten
   samples beyond it, i.e. the sample ranked eleventh from the top, at
   percentile 100 (n - 10) / n.  Below 21 samples that would fall under
   the median, so the maximum stands in and [beyond] reads 0; the
   printed sample counts say how little the figure then rests on. *)
type tail = { pct : float; value : float; beyond : int; n : int }

let tail_beyond = 10

let tail (xs : float list) : tail option =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then None
  else if n < (2 * tail_beyond) + 1 then Some { pct = 100.0; value = a.(n - 1); beyond = 0; n }
  else
    let i = n - tail_beyond - 1 in
    Some { pct = 100.0 *. float_of_int (i + 1) /. float_of_int n; value = a.(i); beyond = tail_beyond; n }

(* Ordinary least squares of y on x: [Some (intercept, slope)], or
   [None] when x does not vary.  Centred sums keep it exact enough for
   x in the millions (warp-instructions per launch). *)
let fit (pts : (float * float) list) : (float * float) option =
  let n = float_of_int (List.length pts) in
  if n < 2.0 then None
  else
    let mx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts /. n in
    let my = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts /. n in
    let sxx, sxy =
      List.fold_left
        (fun (sxx, sxy) (x, y) ->
          let dx = x -. mx in
          (sxx +. (dx *. dx), sxy +. (dx *. (y -. my))))
        (0.0, 0.0) pts
    in
    if sxx = 0.0 then None
    else
      let slope = sxy /. sxx in
      Some (my -. (slope *. mx), slope)

(* ------------------------------------------------------------------ *)
(* Names and the BENCHMARK.json schema                                 *)
(* ------------------------------------------------------------------ *)

let is_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let is_alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

(* A metric or workload name: [A-Za-z0-9_.-]+, at most 64 characters,
   starting with a letter or digit. *)
let valid_name (s : string) : bool =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

let valid_unit (s : string) : bool =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

let valid_path (s : string) : bool =
  let n = String.length s in
  n >= 1 && n <= 200 && s.[0] <> '/'
  && String.for_all (fun c -> is_name_char c || c = '/') s
  && not (List.mem ".." (String.split_on_char '/' s))

let max_end_to_end = 16
let max_per_layer = 128

type metric = { m_name : string; m_unit : string; m_better : string; m_bound : float option }

type spec = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : (string * string) list;  (* name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt

let field k (v : Util.Json.t) : (Util.Json.t, string) result =
  match Util.Json.member k v with Some x -> Ok x | None -> errorf "missing key %S" k

let exact_keys what keys (v : Util.Json.t) : (unit, string) result =
  match v with
  | Util.Json.Obj fields ->
    let got = List.sort compare (List.map fst fields) in
    if got = List.sort compare keys then Ok () else errorf "%s: keys must be exactly %s" what (String.concat "," keys)
  | _ -> errorf "%s: expected an object" what

let str what = function Util.Json.Str s -> Ok s | _ -> errorf "%s: expected a string" what

let list what = function Util.Json.List l -> Ok l | _ -> errorf "%s: expected a list" what

let number what = function
  | Util.Json.Int i -> Ok (float_of_int i)
  | Util.Json.Float f -> Ok f
  | _ -> errorf "%s: expected a number" what

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* ys = map_result f tl in
    Ok (y :: ys)

let check cond fmt = Printf.ksprintf (fun s -> if cond then Ok () else Error s) fmt

let metric_of ~with_bound (v : Util.Json.t) : (metric, string) result =
  let keys = [ "name"; "unit"; "better" ] @ if with_bound then [ "bound" ] else [] in
  let* () = exact_keys "metric" keys v in
  let* name = Result.bind (field "name" v) (str "name") in
  let* unit_ = Result.bind (field "unit" v) (str "unit") in
  let* better = Result.bind (field "better" v) (str "better") in
  let* () = check (valid_name name) "bad metric name %S" name in
  let* () = check (valid_unit unit_) "bad unit %S" unit_ in
  let* () = check (better = "lower" || better = "higher") "%s: better must be lower|higher" name in
  let* bound =
    if with_bound then
      let* b = Result.bind (field "bound" v) (number "bound") in
      let* () = check (b > 0.0 && b <= 0.25) "%s: bound must be in (0, 0.25]" name in
      Ok (Some b)
    else Ok None
  in
  Ok { m_name = name; m_unit = unit_; m_better = better; m_bound = bound }

let distinct names = List.length (List.sort_uniq compare names) = List.length names

(* Parse and validate a BENCHMARK.json document: exact keys, name and
   unit rules, the 16/128 metric caps, bounds of at most 0.25, and a
   setup_s metric. *)
let spec_of_json (v : Util.Json.t) : (spec, string) result =
  let* () =
    exact_keys "BENCHMARK.json"
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      v
  in
  let* command = Result.bind (field "command" v) (list "command") in
  let* command = map_result (str "command") command in
  let* () =
    check
      (command <> [] && List.length command <= 32
      && List.for_all (fun s -> String.length s <= 200) command)
      "command: 1 to 32 strings of at most 200 characters"
  in
  let* paths = Result.bind (field "paths" v) (list "paths") in
  let* paths = map_result (str "paths") paths in
  let* () =
    check
      (paths <> [] && List.length paths <= 16 && List.for_all valid_path paths)
      "paths: 1 to 16 relative paths"
  in
  let* run_seconds =
    match Util.Json.member "run_seconds" v with
    | Some (Util.Json.Int n) when n >= 1 && n <= 60 -> Ok n
    | _ -> Error "run_seconds: a whole number from 1 to 60"
  in
  let* workloads = Result.bind (field "workloads" v) (list "workloads") in
  let* workloads =
    map_result
      (fun w ->
        let* () = exact_keys "workload" [ "name"; "why" ] w in
        let* name = Result.bind (field "name" w) (str "name") in
        let* why = Result.bind (field "why" w) (str "why") in
        let* () = check (valid_name name) "bad workload name %S" name in
        let* () =
          check
            (String.length why <= 200 && not (String.contains why '\n'))
            "%s: why must be one line of at most 200 characters" name
        in
        Ok (name, why))
      workloads
  in
  let* () =
    check (List.length workloads >= 2 && List.length workloads <= 8) "2 to 8 workloads"
  in
  let metrics key ~with_bound ~cap =
    let* l = Result.bind (field key v) (list key) in
    let* ms = map_result (metric_of ~with_bound) l in
    let* () = check (ms <> [] && List.length ms <= cap) "%s: 1 to %d metrics" key cap in
    Ok ms
  in
  let* end_to_end = metrics "end_to_end" ~with_bound:true ~cap:max_end_to_end in
  let* per_layer = metrics "per_layer" ~with_bound:false ~cap:max_per_layer in
  let names =
    List.map fst workloads @ List.map (fun m -> m.m_name) (end_to_end @ per_layer)
  in
  let* () = check (distinct names) "names must be used once" in
  let* () =
    check
      (List.exists
         (fun m -> m.m_name = "setup_s" && m.m_unit = "s" && m.m_better = "lower")
         end_to_end)
      "end_to_end must hold setup_s (s, lower)"
  in
  Ok { command; paths; run_seconds; workloads; end_to_end; per_layer }

let json_of_metric (m : metric) : Util.Json.t =
  Util.Json.Obj
    ([ ("name", Util.Json.Str m.m_name); ("unit", Str m.m_unit); ("better", Str m.m_better) ]
    @ match m.m_bound with Some b -> [ ("bound", Util.Json.Float b) ] | None -> [])

let json_of_spec (s : spec) : Util.Json.t =
  Util.Json.Obj
    [
      ("command", List (List.map (fun c -> Util.Json.Str c) s.command));
      ("paths", List (List.map (fun p -> Util.Json.Str p) s.paths));
      ("run_seconds", Int s.run_seconds);
      ( "workloads",
        List
          (List.map
             (fun (n, w) -> Util.Json.Obj [ ("name", Str n); ("why", Str w) ])
             s.workloads) );
      ("end_to_end", List (List.map json_of_metric s.end_to_end));
      ("per_layer", List (List.map json_of_metric s.per_layer));
    ]

let read_file (file : string) : string = In_channel.with_open_bin file In_channel.input_all

let load_spec (file : string) : (spec, string) result =
  match Util.Json.of_string (read_file file) with
  | Error e -> Error (file ^ ": " ^ e)
  | Ok v -> Result.map_error (fun e -> file ^ ": " ^ e) (spec_of_json v)

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

(* A measured value: integers stay integers (exact counts), floats are
   printed with all their digits. *)
type value = I of int | F of float

let json_of_value = function I i -> Util.Json.Int i | F f -> Util.Json.Float f

(* Check an emitted metric set against the declared list: every
   declared metric present with its unit, nothing undeclared. *)
let conform (declared : metric list) (emitted : (string * (value * string)) list) :
    (unit, string) result =
  let missing =
    List.filter (fun m -> not (List.mem_assoc m.m_name emitted)) declared
    |> List.map (fun m -> m.m_name)
  in
  let extra =
    List.filter (fun (n, _) -> not (List.exists (fun m -> m.m_name = n) declared)) emitted
    |> List.map fst
  in
  let bad_unit =
    List.filter_map
      (fun m ->
        match List.assoc_opt m.m_name emitted with
        | Some (_, u) when u <> m.m_unit -> Some (m.m_name ^ ":" ^ u)
        | _ -> None)
      declared
  in
  let nonfinite =
    List.filter_map
      (fun (n, (v, _)) -> match v with F f when not (Float.is_finite f) -> Some n | _ -> None)
      emitted
  in
  match (missing, extra, bad_unit, nonfinite) with
  | [], [], [], [] -> Ok ()
  | _ ->
    errorf "metrics do not match BENCHMARK.json: missing [%s] undeclared [%s] unit [%s] non-finite [%s]"
      (String.concat " " missing) (String.concat " " extra) (String.concat " " bad_unit)
      (String.concat " " nonfinite)

let result_line ~correct ~attempted ~failed (metrics : (string * (value * string)) list) : string
    =
  Util.Json.to_string
    (Util.Json.Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (n, (v, u)) ->
                  (n, Util.Json.Obj [ ("value", json_of_value v); ("unit", Str u) ]))
                metrics) );
       ])
