(* Analysis workbenches: a small staged problem, a chosen configuration
   compiled through the pipeline's analyze stage, and the launch
   geometry the analyzer reasoned about.  [App.workbench] builds one
   for any app at any scale; `gpuopt lint`, the bench harness's lint
   exhibit and the cross-validation tests all start from there, so
   they agree on problem sizes by construction.

   The problems are deliberately small (the registry's lint workbench
   is the [Reduced] race shape, the sweep-heavy test batteries use
   [Quick]): cross-validation replays every block of the grid in the
   functional simulator, so the workbench scale is what bounds its
   cost. *)

type t = {
  wb_app : string;  (* registry name *)
  wb_config : string;  (* configuration description *)
  wb_dev : Gpu.Device.t;  (* device holding the staged buffers *)
  wb_kernel : Kir.Ast.kernel;  (* post-KIR-pass source, as analyzed *)
  wb_grid : int * int;
  wb_block : int * int;
  wb_args : (string * Gpu.Sim.arg) list;
  wb_arch : Gpu.Arch.t;  (* machine the analysis ran against *)
  wb_compiled : Tuner.Pipeline.compiled;  (* lint = Some _ *)
}

let lint_input ?name (wb : t) : Analysis.Lint.input =
  {
    Analysis.Lint.li_name =
      (match name with Some n -> n | None -> Printf.sprintf "%s %s" wb.wb_app wb.wb_config);
    li_kernel = wb.wb_kernel;
    li_grid = wb.wb_grid;
    li_block = wb.wb_block;
    li_args = wb.wb_args;
    li_arch = wb.wb_arch;
  }

(* The lint report the pipeline's analyze stage produced. *)
let lint (wb : t) : Analysis.Lint.report =
  match wb.wb_compiled.Tuner.Pipeline.lint with
  | Some r -> { r with Analysis.Lint.r_name = Printf.sprintf "%s %s" wb.wb_app wb.wb_config }
  | None -> Analysis.Lint.analyze (lint_input wb)

(* Re-analyze a mutated variant of the workbench kernel (dropped
   barrier, transposed store, ...) under the same launch. *)
let lint_mutant (wb : t) (mutate : Kir.Ast.kernel -> Kir.Ast.kernel) : Analysis.Lint.report =
  Analysis.Lint.analyze
    { (lint_input wb ~name:(Printf.sprintf "%s %s (mutant)" wb.wb_app wb.wb_config)) with
      Analysis.Lint.li_kernel = mutate wb.wb_kernel
    }

(* Diff static predictions against the simulator's per-site counters;
   [?mutate] cross-validates a mutated kernel instead. *)
let crossval ?mutate (wb : t) : Analysis.Crossval.t =
  let inp = lint_input wb in
  let inp =
    match mutate with
    | None -> inp
    | Some f -> { inp with Analysis.Lint.li_kernel = f wb.wb_kernel }
  in
  Analysis.Crossval.run ~dev:wb.wb_dev inp

(* The classic bug of each kind, picked from the kernel itself:
   [`Race] drops the second barrier when there is one (the tile loop's
   read-before-overwrite barrier) and the only one otherwise; [`Bank]
   transposes the stores to the first shared array.  A kernel with
   nothing to mutate — no barrier, no shared memory — is an error. *)
let mutation (wb : t) kind : (Kir.Ast.kernel -> Kir.Ast.kernel, string) result =
  let k = wb.wb_kernel in
  let rec barriers ss =
    List.fold_left
      (fun n (s : Kir.Ast.stmt) ->
        match s with
        | Sync -> n + 1
        | For l -> n + barriers l.body
        | If (_, t, e) -> n + barriers t + barriers e
        | Let _ | Mut _ | Assign _ | Store _ | Return -> n)
      0 ss
  in
  let nothing what = Error (Printf.sprintf "%s %s has %s to mutate" wb.wb_app wb.wb_config what) in
  match (kind, k.shared_decls) with
  | `Race, _ -> (
    match barriers k.body with
    | 0 -> nothing "no barrier"
    | n -> Ok (Kir.Mutate.drop_sync ~index:(min 1 (n - 1))))
  | `Bank, (arr, _) :: _ -> Ok (Kir.Mutate.transpose_store ~array:arr)
  | `Bank, [] -> nothing "no shared memory"
