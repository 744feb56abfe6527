(* The application registry: every benchmark the repository reproduces,
   described uniformly so the CLI and the bench harness can enumerate
   them generically instead of hard-coding one match per app.

   Each entry erases the app's config type behind closures: the space
   metadata (axes, constraints, cardinality) for `gpuopt inspect`, the
   candidate builder at any [App.scale], a by-description compile
   entry point that drives the traced pipeline, and the lint
   workbench. *)

type entry = {
  name : string;  (* CLI name, e.g. "matmul" *)
  display : string;  (* report heading, e.g. "Matrix Multiplication" *)
  title : string;  (* one-line description *)
  axes : Tuner.Space.axis_info list;
  constraints : string list;
  cardinality : int;  (* after validity constraints; Table 4 *)
  configs : string list Lazy.t;  (* all descriptions, enumeration order *)
  candidates :
    ?arch:Gpu.Arch.t ->
    ?extra_ptx:Tuner.Pipeline.ptx_pass list ->
    App.scale ->
    Tuner.Candidate.t list;
      (* the whole space at one problem scale; [extra_ptx] appends
         passes (e.g. the verified peephole leg) to every candidate's
         schedule *)
  compile :
    ?verify:bool ->
    ?hook:(Tuner.Pipeline.stat -> unit) ->
    string ->
    (Tuner.Pipeline.compiled, string) result;
      (* compile one paper-scale configuration, selected by its
         description *)
  workbench : ?arch:Gpu.Arch.t -> ?config:string -> unit -> (Workbench.t, string) result;
      (* the [Reduced] problem + compiled default (or named) config,
         for the static analyzer and its cross-validation harness *)
}

let entry (type c s p) (app : (c, s, p) App.t) : entry =
  {
    name = app.name;
    display = app.display;
    title = app.title;
    axes = Tuner.Space.axes app.space;
    constraints = Tuner.Space.constraints app.space;
    cardinality = Tuner.Space.cardinality app.space;
    configs = lazy (List.map app.describe (Tuner.Space.configs app.space));
    candidates =
      (fun ?arch ?extra_ptx scale -> App.candidates ?arch ?extra_ptx app (app.sizes scale));
    compile =
      (fun ?verify ?hook desc ->
        match Tuner.Space.find ~describe:app.describe app.space desc with
        | Some cfg -> Ok (App.compile ?verify ?hook app (app.sizes Paper) cfg)
        | None -> Error (Printf.sprintf "%s: no configuration %S" app.name desc));
    workbench = (fun ?arch ?config () -> App.workbench ?arch ?config ~scale:Reduced app);
  }

(* Enumeration order is the paper's Table 4 order. *)
let all = [ entry Matmul.app; entry Cp.app; entry Sad.app; entry Mri_fhd.app ]
let names = List.map (fun e -> e.name) all
let find n = List.find_opt (fun e -> String.equal e.name n) all

(* The list [Tuner.Prune]'s race runs on for a sweep of [cands] at
   [scale]: the [Reduced] shape on the same arch and schedule, so
   served predict-explores race exactly what the CLI and the lint
   workbenches use.  A quick (or reduced) target already is a reduced
   shape, so it races against itself. *)
let race_candidates e ~arch ?extra_ptx (scale : App.scale) cands =
  match scale with
  | Paper | Bench -> e.candidates ~arch ?extra_ptx Reduced
  | Quick | Reduced | Check -> cands
