(* The correctness pins: for every (scale, arch, app) a workload
   explores, the digest of the exhaustive result (each survivor's desc
   plus the bits of its simulated time) and the exact counts that must
   repeat from run to run.  They live in perfbench/expected.txt, made
   by `main.exe --pin` from direct [Search.run] calls; every op of
   every run is checked against them. *)

type pin = {
  scale : string;  (* paper | quick *)
  arch : string;
  app : string;
  digest : string;  (* of the exhaustive rows *)
  launches : int;  (* simulator launches of the op's Search.run *)
  winstrs : int;  (* warp-instructions those launches issued *)
  runs : int;  (* measurement-engine simulator runs *)
  selected : int;  (* Pareto subset size *)
  simulated : int;  (* race full simulations (0 without the race) *)
  best : string;  (* exhaustive optimum, desc@bits *)
  pareto : string;  (* fastest Pareto-selected config, desc@bits *)
  race : string;  (* race winner, desc@bits ("-" without the race) *)
}

let file = "perfbench/expected.txt"

let bits (t : float) : string = Printf.sprintf "%016Lx" (Int64.bits_of_float t)
let row_id (desc : string) (t : float) : string = desc ^ "@" ^ bits t

let digest_rows (rows : (string * float) list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun (d, t) ->
      Buffer.add_string b d;
      Buffer.add_char b ' ';
      Buffer.add_string b (bits t);
      Buffer.add_char b '\n')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fields_of (p : pin) : (string * string) list =
  [
    ("scale", p.scale);
    ("arch", p.arch);
    ("app", p.app);
    ("digest", p.digest);
    ("launches", string_of_int p.launches);
    ("winstrs", string_of_int p.winstrs);
    ("runs", string_of_int p.runs);
    ("selected", string_of_int p.selected);
    ("simulated", string_of_int p.simulated);
    ("best", p.best);
    ("pareto", p.pareto);
    ("race", p.race);
  ]

let to_line (p : pin) : string =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (fields_of p))

let of_line (line : string) : pin option =
  let kv =
    String.split_on_char ' ' line
    |> List.filter_map (fun f ->
           match String.index_opt f '=' with
           | Some i -> Some (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
           | None -> None)
  in
  let s k = List.assoc_opt k kv in
  let i k = Option.bind (s k) int_of_string_opt in
  match
    ( (s "scale", s "arch", s "app", s "digest"),
      (i "launches", i "winstrs", i "runs", i "selected", i "simulated"),
      (s "best", s "pareto", s "race") )
  with
  | ( (Some scale, Some arch, Some app, Some digest),
      (Some launches, Some winstrs, Some runs, Some selected, Some simulated),
      (Some best, Some pareto, Some race) ) ->
    Some
      { scale; arch; app; digest; launches; winstrs; runs; selected; simulated; best; pareto; race }
  | _ -> None

let load () : pin list =
  Harness.read_file file |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match of_line l with Some p -> p | None -> failwith (file ^ ": bad line: " ^ l))

let find (pins : pin list) ~scale ~arch ~app : pin option =
  List.find_opt (fun p -> p.scale = scale && p.arch = arch && p.app = app) pins

(* Everything a finished Search.run pins. *)
let of_result ~scale ~arch (r : Tuner.Search.result) : pin =
  let id (m : Tuner.Search.measured) = row_id m.cand.desc m.time_s in
  {
    scale;
    arch;
    app = r.app_name;
    digest =
      digest_rows
        (List.map (fun (m : Tuner.Search.measured) -> (m.cand.desc, m.time_s)) r.exhaustive);
    launches = r.engine.sim_launches;
    winstrs = r.engine.sim_warp_instrs;
    runs = r.engine.measure_runs;
    selected = List.length r.selected;
    simulated = (match r.prune with Some o -> o.pr_simulated | None -> 0);
    best = id r.best;
    pareto = id r.selected_best;
    race = (match r.prune with Some o -> id o.pr_winner | None -> "-");
  }

(* The fields of [got] that differ from [want], as "key=got/want". *)
let diff ~(want : pin) ~(got : pin) : string list =
  List.filter_map
    (fun ((k, w), (_, g)) -> if w = g then None else Some (Printf.sprintf "%s=%s/%s" k g w))
    (List.combine (fields_of want) (fields_of got))

(* ------------------------------------------------------------------ *)
(* Candidate lists and CPU-reference validation                        *)
(* ------------------------------------------------------------------ *)

let entry (app : string) : Apps.Registry.entry =
  match Apps.Registry.find app with Some e -> e | None -> invalid_arg ("unknown app " ^ app)

(* [scale] is "paper" (the registry's full scale) or "quick". *)
let candidates ~(scale : string) ?(arch = Gpu.Arch.g80) (app : string) : Tuner.Candidate.t list =
  let scale = if scale = "paper" then Tuner.Proto.Full else Tuner.Proto.Quick in
  Apps.Serving.scale_candidates (entry app) ~arch scale

(* Run the config's kernel functionally and compare with the app's CPU
   reference ([Apps.<App>.validate], found by description). *)
let validate_uncached (app : string) (desc : string) : bool =
  let go space describe validate =
    match Tuner.Space.find ~describe space desc with Some c -> validate c | None -> false
  in
  match app with
  | "matmul" -> go Apps.Matmul.space Apps.Matmul.describe (fun c -> Apps.Matmul.validate c)
  | "cp" -> go Apps.Cp.space Apps.Cp.describe (fun c -> Apps.Cp.validate c)
  | "sad" -> go Apps.Sad.space Apps.Sad.describe (fun c -> Apps.Sad.validate c)
  | "mri" -> go Apps.Mri_fhd.space Apps.Mri_fhd.describe (fun c -> Apps.Mri_fhd.validate c)
  | _ -> false

let validated : (string * string, bool) Hashtbl.t = Hashtbl.create 16

let validate app desc =
  match Hashtbl.find_opt validated (app, desc) with
  | Some ok -> ok
  | None ->
    let ok = try validate_uncached app desc with _ -> false in
    Hashtbl.replace validated (app, desc) ok;
    ok
