(* One application, described once.

   The paper runs the same pipeline over every application: config
   space -> kernel -> static metrics -> Pareto subset -> measure.  An
   app declares only what is its own — the space, the pass schedule and
   kernel generator, its problem sizes, how to stage a problem on the
   device, the launch it makes and the CPU reference its outputs must
   match.  The host plumbing the pipeline needs (launches, analyzer
   inputs, compiling, candidate lists with their measurement thunks,
   functional validation, analysis workbenches) is written once here,
   over that description.

   Problem sizes are named by [scale]:

   - [Paper]:   the paper-scale problem (Table 4, Figure 6);
   - [Bench]:   the bench harness's problem (smaller than [Paper] only
                where the exhaustive sweep would otherwise not stay
                tractable on a host CPU);
   - [Quick]:   the smallest problem the whole space sweeps at in well
                under a second, for the test suite and `--quick` runs;
                it tolerates a shuffled ranking;
   - [Reduced]: the predictor's successive-halving race shape
                ([Tuner.Prune]), also the lint workbench's;
   - [Check]:   the functional-validation problem ([validate]).

   [Reduced] shapes are chosen for ordering fidelity, not just speed:
   the race only works if the reduced shape ranks candidates the way
   the full problem does.  That forces one rule — shrink the
   *sequential* dimension each thread iterates over (matrix extent,
   atoms per point, search positions, samples per voxel) and keep the
   *parallel* grid and the per-SM block cap at full scale.  Shrinking
   the grid instead leaves wide-work-per-thread configurations
   under-populated on the machine, and their relative order inverts: at
   3360 voxels MRI's true optimum (192 threads, 7 voxels per thread)
   launches too few blocks to cover the SMs and ranks 160th of 175; at
   the full 107520 voxels with only 16 samples it ranks 1st.  The race's
   store entries are keyed by the reduced space digest and the lint
   cross-validation replays the same launch, so every consumer takes
   the shape from [sizes Reduced]. *)

type scale = Paper | Bench | Quick | Reduced | Check

(* ['c] is the app's configuration, ['s] its problem size and ['p] a
   problem staged on a device. *)
type ('c, 's, 'p) t = {
  name : string;  (* CLI and registry name, e.g. "mri" *)
  display : string;  (* report heading, e.g. "MRI-FHD" *)
  title : string;  (* one-line description *)
  space : 'c Tuner.Space.t;
  describe : 'c -> string;
  schedule : 'c -> Tuner.Pipeline.schedule;
  kernel : 's -> 'c -> Kir.Ast.kernel;  (* the base kernel, before [schedule] *)
  sizes : scale -> 's;
  max_blocks : 's -> int;  (* timing mode's per-SM block cap *)
  setup : 's -> 'p;  (* allocate and fill the inputs *)
  dev : 'p -> Gpu.Device.t;
  launch_shape : 'p -> 'c -> (int * int) * (int * int);  (* grid, block *)
  args : 'p -> (string * Gpu.Sim.arg) list;
  reference : 'p -> (Gpu.Device.buffer * float array) list;
      (* every output buffer with its CPU-reference contents *)
  tolerance : float * float;  (* rtol, atol of [Util.Float32.close] *)
}

(* Launch geometry and arguments are independent of the compiled
   kernel: the static analyzer consumes them before any PTX exists. *)
let launch app p cfg (kernel : Ptx.Prog.t) : Gpu.Sim.launch =
  let grid, block = app.launch_shape p cfg in
  { Gpu.Sim.kernel; grid; block; args = app.args p }

let analysis_input ?(arch = Gpu.Arch.g80) app p cfg : Tuner.Pipeline.analysis_input =
  let grid, block = app.launch_shape p cfg in
  { Tuner.Pipeline.an_grid = grid; an_block = block; an_args = app.args p; an_arch = arch }

(* The one compile entry point: [schedule cfg] applied to the base
   kernel through the verified pipeline. *)
let compile ?verify ?hook ?analyze app size cfg : Tuner.Pipeline.compiled =
  Tuner.Pipeline.compile ?verify ?hook ?analyze (app.schedule cfg) (app.kernel size cfg)

(* The full candidate list for the tuner: compile every configuration
   through the pipeline, characterize it statically, and provide a
   simulated measurement thunk.  The problem is staged once; each thunk
   runs against a private clone of its device, because thunks may
   execute on concurrent domains (Search ~jobs). *)
let candidates ?(arch = Gpu.Arch.g80) ?extra_ptx app size : Tuner.Candidate.t list =
  let p = app.setup size in
  let mode = Gpu.Sim.Timing { max_blocks = app.max_blocks size } in
  Tuner.Pipeline.candidates_of_space ~arch ?extra_ptx ~space:app.space ~describe:app.describe
    ~schedule:app.schedule ~kernel:(app.kernel size)
    ~threads_per_block:(fun cfg ->
      let _, (bx, by) = app.launch_shape p cfg in
      bx * by)
    ~threads_total:(fun cfg ->
      let (gx, gy), (bx, by) = app.launch_shape p cfg in
      gx * gy * bx * by)
    ~run:(fun cfg ptx () ->
      let dev = Gpu.Device.clone (app.dev p) in
      (Gpu.Sim.run ~mode ~arch dev (launch app p cfg ptx)).time_s)
    ()

(* Functional validation of one configuration against the CPU
   reference (the apps validate at their [Check] size).  Compiles
   through the same pipeline as [candidates], so the validated kernel
   can never diverge from the measured one. *)
let validate app size cfg : bool =
  let p = app.setup size in
  let ptx = (compile app size cfg).ptx in
  ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional (app.dev p) (launch app p cfg ptx));
  let rtol, atol = app.tolerance in
  List.for_all
    (fun (buf, want) ->
      Array.for_all2 (Util.Float32.close ~rtol ~atol) (Gpu.Device.of_device (app.dev p) buf) want)
    (app.reference p)

(* The problem at [scale] with one configuration — the space's first
   point, or the one [config] describes — compiled through the
   pipeline's analyze stage. *)
let workbench ?arch ?config ~scale app : (Workbench.t, string) result =
  let cfg =
    match config with
    | None -> Ok (List.hd (Tuner.Space.configs app.space))
    | Some d ->
      Option.to_result
        ~none:(Printf.sprintf "no configuration %S" d)
        (Tuner.Space.find ~describe:app.describe app.space d)
  in
  Result.map
    (fun cfg ->
      let size = app.sizes scale in
      let p = app.setup size in
      let ai = analysis_input ?arch app p cfg in
      let c = compile ~analyze:ai app size cfg in
      {
        Workbench.wb_app = app.name;
        wb_config = app.describe cfg;
        wb_dev = app.dev p;
        wb_kernel = c.Tuner.Pipeline.source;
        wb_grid = ai.Tuner.Pipeline.an_grid;
        wb_block = ai.Tuner.Pipeline.an_block;
        wb_args = ai.Tuner.Pipeline.an_args;
        wb_arch = ai.Tuner.Pipeline.an_arch;
        wb_compiled = c;
      })
    cfg
