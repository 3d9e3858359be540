(* The repository's benchmark.  Two closed-loop workloads drive the
   checker's public API end to end; a separate traced run splits the
   time across the layers.  README.md in this directory gives the
   workloads, the metric -> layer -> end-to-end map and the caveats.

   Usage:
     bench.exe --workload paper-seq|daemon-batch --seed N --seconds S --trace 0|1

   The last line of standard output is the JSON result; everything a
   run writes goes to _perfbench/ under the current directory. *)

module P = Perfstats
module C = Holistic.Checker
module J = Jsonc

(* ------------------------------------------------------------------ *)
(* Arguments. *)

let workloads = [ "paper-seq"; "daemon-batch" ]

let usage () =
  prerr_endline "usage: bench.exe --workload paper-seq|daemon-batch --seed N --seconds S --trace 0|1";
  exit 2

let arg name =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let workload =
  match arg "--workload" with Some w when List.mem w workloads -> w | _ -> usage ()

let seed = match Option.bind (arg "--seed") int_of_string_opt with Some s -> s | None -> usage ()

let seconds =
  match Option.bind (arg "--seconds") float_of_string_opt with
  | Some s when s > 0. -> s
  | _ -> usage ()

let traced = match arg "--trace" with None | Some "0" -> false | Some "1" -> true | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Fixed inputs. *)

let nproc = Domain.recommended_domain_count ()

(* Preorder prefixes the capped jobs stop at.  paper-seq's two slow rows
   and every daemon job stop at 32 schemas, so that each operation takes
   well under a second and a run repeats it dozens of times (see
   Steadiness in README.md); the daemon cuts its job into two slices of
   16.  The flat replay of the traced run takes 128 schemas, enough
   leaves for a 90th percentile with ten samples beyond it. *)
let prefix = 32
let daemon_slice = 16
let replay_prefix = 128

let bv = Models.Bv_ta.automaton
let simplified = Models.Simplified_ta.automaton
let inv1_0 = Models.Simplified_ta.inv1_0
let sround = Models.Simplified_ta.sround_term
let capped n = { C.default_limits with max_schemas = n }

type op = { ta : Ta.Automaton.t; spec : Ta.Spec.t; limits : C.limits }

(* Table 2's bv rows and simplified rows.  The two slow simplified rows
   stop at the prefix; the other three are decided whole by the static
   pass.  Naive rows are left out: their time-budget aborts land on a
   different schema count from run to run. *)
let table2_ops =
  List.map (fun spec -> { ta = bv; spec; limits = C.default_limits }) Models.Bv_ta.table2_specs
  @ List.map
      (fun (spec : Ta.Spec.t) ->
        let slow = spec == inv1_0 || spec == sround in
        { ta = simplified; spec; limits = (if slow then capped prefix else C.default_limits) })
      Models.Simplified_ta.table2_specs

(* Committed references: outcome, schema count, slot total and witness
   digest of every operation.  Solver steps are effort, not verdict, and
   are not gated. *)
let expected =
  [
    ("BV-Just0", "holds schemas=19 slots=318 witness=-");
    ("BV-Obl0", "holds schemas=19 slots=318 witness=-");
    ("BV-Unif0", "holds schemas=19 slots=318 witness=-");
    ("BV-Term", "holds schemas=19 slots=318 witness=-");
    ("Inv1_0@32", "aborted schemas=32 slots=2402 witness=-");
    ("SRound-Term@32", "aborted schemas=32 slots=2402 witness=-");
    ("Inv1_0@128", "aborted schemas=128 slots=12610 witness=-");
    ("Inv2_0", "holds schemas=2116 slots=236190 witness=-");
    ("Good_0", "holds schemas=2116 slots=194108 witness=-");
    ("Dec_0", "holds schemas=2116 slots=236190 witness=-");
    ("Inv1_0", "holds schemas=2116 slots=236190 witness=-");
  ]

(* ------------------------------------------------------------------ *)
(* Clocks and process figures. *)

let now = Unix.gettimeofday

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU of reaped children: the daemon's coordinator, and through it the
   workers it reaped. *)
let cpu_reaped () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words

let read_proc pid file =
  match In_channel.with_open_text (Printf.sprintf "/proc/%s/%s" pid file) In_channel.input_all with
  | text -> Some text
  | exception Sys_error _ -> None

(* VmHWM of a live process, in MB. *)
let peak_rss_mb pid =
  match read_proc pid "status" with
  | None -> nan
  | Some text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.
        | None -> acc)
      nan (String.split_on_char '\n' text)

(* CPU time of a live process: the scheduler's exact run time
   (se.sum_exec_runtime, in ms) summed over its threads.  The tick-based
   utime/stime of /proc/<pid>/stat would round each job to 10 ms. *)
let proc_cpu pid =
  let task = Printf.sprintf "/proc/%s/task" pid in
  match Sys.readdir task with
  | exception Sys_error _ -> nan
  | tids ->
    Array.fold_left
      (fun acc tid ->
        match read_proc (Printf.sprintf "%s/task/%s" pid tid) "sched" with
        | None -> acc
        | Some text ->
          List.fold_left
            (fun acc line ->
              match Scanf.sscanf_opt line "se.sum_exec_runtime : %f" Fun.id with
              | Some ms -> acc +. (ms /. 1e3)
              | None -> acc)
            acc (String.split_on_char '\n' text))
      0. tids

let median_time ~reps f =
  let times =
    List.init reps (fun _ ->
        let t0 = now () in
        f ();
        now () -. t0)
  in
  P.median times

(* ------------------------------------------------------------------ *)
(* Spans: recorded only in the traced run, kept in memory, written out
   at the end.  Each carries counts taken at the same boundary. *)

type span = {
  sid : int;
  name : string;
  parent : int;
  t0 : float;
  mutable t1 : float;
  mutable counts : (string * float) list;
}

let tracing = ref false
let spans : span list ref = ref []
let next_sid = ref 0
let current = ref (-1)

let record ?(counts = []) name t0 t1 =
  if !tracing then begin
    spans := { sid = !next_sid; name; parent = !current; t0; t1; counts } :: !spans;
    incr next_sid
  end

let span ?(counts = fun _ -> []) name f =
  if not !tracing then f ()
  else begin
    let parent = !current in
    let sid = !next_sid in
    incr next_sid;
    let s = { sid; name; parent; t0 = now (); t1 = nan; counts = [] } in
    current := sid;
    let finish () =
      s.t1 <- now ();
      current := parent;
      spans := s :: !spans
    in
    match f () with
    | v ->
      finish ();
      s.counts <- counts v;
      v
    | exception e ->
      finish ();
      raise e
  end

(* Self time per span name: duration minus the part of the interval its
   children cover. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1)) !spans;
  let covered s =
    let ivs =
      Hashtbl.find_all children s.sid
      |> List.map (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
      |> List.sort compare
    in
    let total, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = Float.max a reach in
          if b > a then (acc +. (b -. a), b) else (acc, reach))
        (0., neg_infinity) ivs
    in
    total
  in
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt self s.name) in
      Hashtbl.replace self s.name (prev +. (s.t1 -. s.t0 -. covered s)))
    !spans;
  self

let write_trace path =
  let t_base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans in
  let event s =
    P.Obj
      [
        ("name", P.Str s.name);
        ("ph", P.Str "X");
        ("ts", P.Num (Float.round ((s.t0 -. t_base) *. 1e6)));
        ("dur", P.Num (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("pid", P.Num 1.);
        ("tid", P.Num 1.);
        ( "args",
          P.Obj
            (("id", P.Num (float_of_int s.sid))
            :: ("parent", P.Num (float_of_int s.parent))
            :: List.map (fun (k, v) -> (k, P.Num v)) s.counts) );
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (P.to_string (P.List (List.rev_map event !spans)));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* The verdict gate. *)

let attempted = ref 0
let failed = ref 0
let self_checks_ok = ref true

let self_check what ok =
  if not ok then begin
    self_checks_ok := false;
    Printf.eprintf "bench: self-check failed: %s\n%!" what
  end

let verdict (r : C.result) =
  let outcome, witness =
    match r.C.outcome with
    | C.Holds -> ("holds", "-")
    | C.Violated w ->
      ("violated", Digest.to_hex (Digest.string (Format.asprintf "%a" Holistic.Witness.pp w)))
    | C.Aborted _ -> ("aborted", "-")
    | C.Partial _ -> ("partial", "-")
  in
  Printf.sprintf "%s schemas=%d slots=%d witness=%s" outcome r.C.stats.schemas_checked
    r.C.stats.slots_total witness

let ref_name (spec : Ta.Spec.t) (limits : C.limits) =
  if limits.C.max_schemas < C.default_limits.C.max_schemas then
    Printf.sprintf "%s@%d" spec.Ta.Spec.name limits.C.max_schemas
  else spec.Ta.Spec.name

(* Counts one operation; a differing verdict or a raised exception is a
   failed operation. *)
let gate ~name f =
  incr attempted;
  match f () with
  | r ->
    let got = verdict r in
    let want = List.assoc_opt name expected in
    if want <> Some got then begin
      incr failed;
      Printf.eprintf "bench: %s: got %S, expected %S\n%!" name got
        (Option.value ~default:"<none>" want)
    end;
    Some r
  | exception e ->
    incr failed;
    Printf.eprintf "bench: %s raised %s\n%!" name (Printexc.to_string e);
    None

(* Wall and CPU time of every repetition of each operation. *)
let op_times : (string, (float * float) list) Hashtbl.t = Hashtbl.create 16

let verify_op op =
  let name = ref_name op.spec op.limits in
  gate ~name (fun () ->
      let t0 = now () and c0 = cpu_self () in
      let r =
        span "checker.verify"
          ~counts:(fun (r : C.result) ->
            [ ("schemas", float_of_int r.C.stats.schemas_checked);
              ("steps", float_of_int r.C.stats.solver_steps) ])
          (fun () -> C.verify ~limits:op.limits op.ta op.spec)
      in
      let sample = (now () -. t0, cpu_self () -. c0) in
      Hashtbl.replace op_times name
        (sample :: Option.value ~default:[] (Hashtbl.find_opt op_times name));
      r)

let rng = Random.State.make [| seed |]

let shuffle l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let metric name value unit_ = { P.name; value; unit_ }

(* ------------------------------------------------------------------ *)
(* Scratch directory. *)

let work_dir =
  Filename.concat (Sys.getcwd ())
    (Filename.concat "_perfbench" (string_of_int (Unix.getpid ())))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* paper-seq: the 1-core paper path. *)

let paper_seq_setup () =
  ignore (Holistic.Universe.build bv);
  ignore (Holistic.Universe.build simplified)

let paper_seq_job () = List.filter_map verify_op (shuffle table2_ops)

(* The N-core path through the domain pool, uncapped (a cap starves the
   pool: one worker gets the whole prefix).  Traced run only. *)

let par_op = { ta = simplified; spec = inv1_0; limits = { C.default_limits with jobs = nproc } }
let paper_par_job () = verify_op par_op

(* ------------------------------------------------------------------ *)
(* The `verify --cache FILE` rerun.  Traced run only. *)

let memo_specs = [ inv1_0; sround ]
let memo_limits = capped prefix
let cache_path () = Filename.concat work_dir "qcache.json"

(* Writes the cache file with the code under test: one cold pass
   through a fresh portfolio, then Cachefile.save. *)
let memo_prepare u =
  let p = Smt.Portfolio.create (Smt.Qcache.create ()) in
  let cold =
    span "portfolio.cold" (fun () ->
        List.filter_map
          (fun spec ->
            gate ~name:(ref_name spec memo_limits) (fun () ->
                span "checker.verify" (fun () ->
                    C.verify_with_universe ~limits:memo_limits ~portfolio:p u spec)))
          memo_specs)
  in
  let t0 = now () in
  let saved =
    span "cachefile.save" (fun () ->
        Holistic.Cachefile.save ~path:(cache_path ()) (Smt.Portfolio.cache p))
  in
  (cold, now () -. t0, saved)

let memo_load () = span "cachefile.load" (fun () -> Holistic.Cachefile.load ~path:(cache_path ()))

let memo_job u (loaded : Holistic.Cachefile.load_report) () =
  let p = Smt.Portfolio.create loaded.Holistic.Cachefile.cache in
  List.filter_map
    (fun spec ->
      gate ~name:(ref_name spec memo_limits) (fun () ->
          span "checker.verify"
            ~counts:(fun (r : C.result) ->
              [ ("hits", float_of_int r.C.stats.cache.Smt.Portfolio.hits);
                ("steps", float_of_int r.C.stats.solver_steps) ])
            (fun () -> C.verify_with_universe ~limits:memo_limits ~portfolio:p u spec)))
    (shuffle memo_specs)

(* ------------------------------------------------------------------ *)
(* daemon-batch: `holistic serve` driven over its socket. *)

let cli_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "holistic_cli.exe")

(* The coordinator keeps a core for itself and the load generator. *)
let daemon_workers = max 1 (nproc - 1)

type daemon = { pid : int; dir : string; ctl : Service.Client.t; ready : float }

let live_daemons : int list ref = ref []
let events_dir () = Filename.concat work_dir "events"

(* With [events], the daemon's processes (the coordinator and every
   worker it forks) write the runtime's event ring to events_dir, from
   which [alloc_meter] reads their allocation. *)
let spawn_daemon ?(events = false) idx =
  let dir = Filename.concat work_dir (Printf.sprintf "daemon-%d" idx) in
  remove_tree dir;
  mkdir_p dir;
  let log = Filename.concat work_dir (Printf.sprintf "daemon-%d.log" idx) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let env =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS_" kv))
      (Array.to_list (Unix.environment ()))
  in
  let env =
    if events then begin
      mkdir_p (events_dir ());
      "OCAML_RUNTIME_EVENTS_START=1" :: ("OCAML_RUNTIME_EVENTS_DIR=" ^ events_dir ()) :: env
    end
    else env
  in
  let t0 = now () in
  let pid =
    Unix.create_process_env cli_exe
      [| cli_exe; "serve"; "--state"; dir; "--workers"; string_of_int daemon_workers;
         "--slice-size"; string_of_int daemon_slice |]
      (Array.of_list env) Unix.stdin fd fd
  in
  Unix.close fd;
  live_daemons := pid :: !live_daemons;
  match Service.Client.connect ~retries:10_000 ~delay:0.001 ~state_dir:dir () with
  | Ok ctl -> { pid; dir; ctl; ready = now () -. t0 }
  | Error e -> failwith ("daemon did not come up: " ^ e)

let stop_daemon d =
  (match Service.Client.shutdown d.ctl with
  | Ok () -> ()
  | Error e -> Printf.eprintf "bench: daemon shutdown: %s\n%!" e);
  Service.Client.close d.ctl;
  ignore (Unix.waitpid [] d.pid);
  live_daemons := List.filter (( <> ) d.pid) !live_daemons

(* Daemons still running when the benchmark exits early. *)
let stop_live_daemons () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_daemons

let status d =
  match Service.Client.request d.ctl (J.Obj [ ("t", J.Str "status") ]) with
  | Ok reply -> J.to_list (J.member "workers" reply)
  | Error e -> failwith ("daemon status: " ^ e)

let worker_pids d = List.map (fun w -> string_of_int (J.to_int (J.member "pid" w))) (status d)

(* Words allocated so far by the given processes of an events-enabled
   daemon: the runtime's minor-allocated and promoted counters, which it
   emits in bytes at every minor collection.  Direct major allocations
   are not among the counters and are not counted.  Each call reads the
   rings up to now; [run_jobs] calls it every 20 ms, well inside the time
   a worker takes to fill its ring, and a lost event fails the run's
   self-check. *)
let alloc_meter pids =
  let bytes = ref 0 and lost = ref 0 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_counter:(fun _ _ counter v ->
        match counter with
        | Runtime_events.EV_C_MINOR_ALLOCATED | Runtime_events.EV_C_MINOR_PROMOTED ->
          bytes := !bytes + v
        | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  (* A forked worker creates its ring file first and writes the ring's
     headers after; a cursor opened in between misreads every event.
     So wait for every file, then give the headers a moment. *)
  let t0 = now () in
  List.iter
    (fun pid ->
      let file = Filename.concat (events_dir ()) (pid ^ ".events") in
      while (not (Sys.file_exists file)) && now () -. t0 < 5. do
        Unix.sleepf 0.001
      done)
    pids;
  Unix.sleepf 0.1;
  let cursors =
    List.map (fun pid -> Runtime_events.create_cursor (Some (events_dir (), int_of_string pid))) pids
  in
  fun () ->
    List.iter (fun c -> ignore (Runtime_events.read_poll c callbacks None)) cursors;
    self_check (Printf.sprintf "%d runtime events lost" !lost) (!lost = 0);
    float_of_int (!bytes / (Sys.word_size / 8))

(* `daemon status` sampled while a job is open (traced run only): when a
   worker is first seen on the job, how long each slice ran, how often a
   worker was idle. *)
type watch = {
  mutable queue_wait : float list;
  mutable seen : int list;
  on_task : (int, (int * int) option * float) Hashtbl.t;
  mutable slices : float list;
  mutable idle : int;
  mutable samples : int;
}

let new_watch () =
  { queue_wait = []; seen = []; on_task = Hashtbl.create 4; slices = []; idle = 0; samples = 0 }

let sample d w ~job ~submitted =
  let t = now () in
  List.iter
    (fun wk ->
      let pid = J.to_int (J.member "pid" wk) in
      w.samples <- w.samples + 1;
      let task =
        match J.member "task" wk with
        | J.Null ->
          w.idle <- w.idle + 1;
          None
        | task ->
          let on = J.to_int (J.member "job" task) in
          if on = job && not (List.mem job w.seen) then begin
            w.seen <- job :: w.seen;
            w.queue_wait <- (t -. submitted) :: w.queue_wait
          end;
          Some (on, J.to_int (J.member "start" task))
      in
      match Hashtbl.find_opt w.on_task pid with
      | Some (prev, _) when prev = task -> ()
      | prev ->
        (match prev with Some (Some _, since) -> w.slices <- (t -. since) :: w.slices | _ -> ());
        Hashtbl.replace w.on_task pid (task, t))
    (status d)

type job = { lat : float; rtt : float; cpu : float; alloc : float }

(* A closed loop on one connection with one job in flight: while [more
   ()], run [between ()], submit the capped Inv1_0 prefix, wait for its
   row and compare it byte for byte with [ref_row].  Each job's figures:
   submit-to-row latency, submit round trip, and the CPU (coordinator and
   workers, from /proc) and allocation ([meter]) between submit and row.
   [meter] and [tick] run every 20 ms while a job is open. *)
let run_jobs d ~ref_row ~more ?(between = ignore) ?(tick = fun ~job:_ ~submitted:_ -> ())
    ?(meter = fun () -> 0.) () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Service.Coordinator.socket_path d.dir));
  let reader = Service.Lineio.reader fd in
  let inbox = Queue.create () in
  let rec next_line on_wait =
    match Queue.take_opt inbox with
    | Some line -> line
    | None ->
      (match Unix.select [ fd ] [] [] 0.02 with
      | [], _, _ -> ()
      | _ -> (
        match Service.Lineio.poll reader with
        | `Lines lines -> List.iter (fun l -> Queue.push l inbox) lines
        | `Eof -> failwith "daemon closed the load connection"));
      on_wait ();
      next_line on_wait
  in
  let lost what =
    incr failed;
    Printf.eprintf "bench: daemon: %s\n%!" what
  in
  let procs = string_of_int d.pid :: worker_pids d in
  let daemon_cpu () = List.fold_left (fun acc pid -> acc +. proc_cpu pid) 0. procs in
  let jobs = ref [] in
  while more () do
    between ();
    incr attempted;
    let c0 = daemon_cpu () and a0 = meter () and t0 = now () in
    let timeout () = if now () -. t0 > 170. then failwith "daemon job timed out" in
    Service.Lineio.send fd
      (J.Obj
         [ ("t", J.Str "submit"); ("model", J.Str "simplified");
           ("spec", J.Str inv1_0.Ta.Spec.name); ("max_schemas", J.Int prefix) ]);
    let reply = next_line timeout in
    let rtt = now () -. t0 in
    match J.member_opt "ids" (J.of_string reply) with
    | exception J.Parse_error e -> lost ("unparsable submit reply: " ^ e)
    | Some (J.List [ J.Int id ]) ->
      Service.Lineio.send fd (J.Obj [ ("t", J.Str "wait"); ("id", J.Int id) ]);
      let rec row () =
        let line =
          next_line (fun () ->
              timeout ();
              ignore (meter ());
              tick ~job:id ~submitted:t0)
        in
        match J.of_string line with
        | exception J.Parse_error e ->
          lost ("unparsable line: " ^ e);
          row ()
        | m when J.member_opt "t" m = Some (J.Str "job") && J.member_opt "id" m = Some (J.Int id) -> m
        | _ ->
          lost ("unexpected line: " ^ line);
          row ()
      in
      let m = row () in
      let t = now () in
      let cpu = daemon_cpu () -. c0 and alloc = meter () -. a0 in
      record "daemon.job" t0 t ~counts:[ ("id", float_of_int id) ];
      if J.to_string (J.member "row" m) <> ref_row then
        lost ("row differs: " ^ J.to_string (J.member "row" m));
      jobs := { lat = t -. t0; rtt; cpu; alloc } :: !jobs
    | _ -> lost ("submit refused: " ^ reply)
  done;
  Unix.close fd;
  List.rev !jobs

let daemon_limits = capped prefix

(* The in-process row of the identical job, and its CPU. *)
let daemon_reference () =
  let u = Holistic.Universe.build simplified in
  let c0 = cpu_self () in
  match
    gate ~name:(ref_name inv1_0 daemon_limits) (fun () ->
        span "checker.verify" (fun () -> C.verify_with_universe ~limits:daemon_limits u inv1_0))
  with
  | Some r -> (J.to_string (Service.Protocol.row_of_result ~model:"simplified" r), cpu_self () -. c0)
  | None -> failwith "the in-process reference job failed"

(* ------------------------------------------------------------------ *)
(* Timed runs.  The host runs at two speeds and switches between them
   within seconds, so each timing is the run's best repetition: the
   figure the slow periods disturb least (README.md, Steadiness). *)

let self_rss () = peak_rss_mb "self"

let timed () =
  let t_end = now () +. seconds in
  match workload with
  | "paper-seq" ->
    let setups = ref [] and jobs = ref 0 and alloc = ref 0. in
    while !jobs = 0 || now () < t_end do
      let t0 = now () in
      paper_seq_setup ();
      setups := (now () -. t0) :: !setups;
      let a0 = alloc_words () in
      ignore (paper_seq_job ());
      alloc := !alloc +. (alloc_words () -. a0);
      incr jobs
    done;
    (* One job assembled from each operation's best repetition. *)
    let best f = Hashtbl.fold (fun _ samples acc -> acc +. P.least (List.map f samples)) op_times 0. in
    [
      metric "setup_s" (P.least !setups) "s";
      metric "run_s" (best fst) "s";
      metric "cpu_s" (best snd) "s";
      metric "alloc_mwords" (!alloc /. float_of_int !jobs /. 1e6) "Mwords";
      metric "peak_rss_mb" (self_rss ()) "MB";
    ]
  | _ ->
    let ref_row, _ = daemon_reference () in
    let d = spawn_daemon ~events:true 0 in
    let meter = alloc_meter (string_of_int d.pid :: worker_pids d) in
    (* Readiness probes: a plain daemon spawned and stopped before every
       job and after the last, outside the job figures. *)
    let probes = ref [] in
    let probe () =
      let p = spawn_daemon (1 + List.length !probes) in
      stop_daemon p;
      probes := p.ready :: !probes
    in
    let jobs = run_jobs d ~ref_row ~more:(fun () -> now () < t_end) ~between:probe ~meter () in
    probe ();
    let rss = List.fold_left (fun acc pid -> Float.max acc (peak_rss_mb pid)) 0. (worker_pids d) in
    stop_daemon d;
    if jobs = [] then failwith "no daemon job completed";
    [
      metric "setup_s" (P.least !probes) "s";
      metric "run_s" (P.least (List.map (fun j -> j.lat) jobs)) "s";
      metric "cpu_s" (P.least (List.map (fun j -> j.cpu) jobs)) "s";
      metric "alloc_mwords" (P.median (List.map (fun j -> j.alloc) jobs) /. 1e6) "Mwords";
      metric "peak_rss_mb" rss "MB";
    ]

(* ------------------------------------------------------------------ *)
(* The traced run: every layer probed from this file, with spans around
   each call, plus the tracing overhead on the requested workload. *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let p50 xs = P.median xs

let p90 what xs =
  match P.tail 90. xs with
  | Some v -> v
  | None ->
    self_check (what ^ ": fewer than ten samples beyond the 90th percentile") false;
    nan

(* The tracing overhead on the requested workload: its job runs traced
   as a probe and then once more untraced; the overhead is the
   difference per job.  Warm-up lands on the traced run, so the estimate
   errs towards more overhead. *)
let trace_run_s = ref nan
let trace_overhead_s = ref nan

let traced_job name ?(per = 1) job =
  let timed_job () =
    let t0 = now () in
    let r = span "job" job in
    (r, (now () -. t0) /. float_of_int per)
  in
  let r, t = timed_job () in
  if name = workload then begin
    tracing := false;
    let _, untraced = timed_job () in
    tracing := true;
    trace_run_s := t;
    trace_overhead_s := t -. untraced
  end;
  r

(* Flat replay of the Inv1_0 prefix: enumerate, encode each schema,
   solve each query, every call timed. *)
let lia_replay u =
  let encode_t = ref [] and solve_t = ref [] and steps_l = ref [] and alloc_l = ref [] in
  let atoms_l = ref [] and leaves = ref [] and n = ref 0 in
  span "replay" (fun () ->
      ignore
        (Holistic.Schema.enumerate u inv1_0 ~on_schema:(fun schema ->
             let t0 = now () in
             let e = span "encode.encode" (fun () -> Holistic.Encode.encode u inv1_0 schema) in
             let t1 = now () in
             let steps = ref 0 in
             let a0 = Gc.minor_words () in
             let v =
               span "lia.solve"
                 ~counts:(fun _ -> [ ("steps", float_of_int !steps) ])
                 (fun () ->
                   Smt.Lia.solve ~steps ~max_steps:C.default_limits.C.lia_max_steps
                     e.Holistic.Encode.atoms)
             in
             let t2 = now () in
             alloc_l := (Gc.minor_words () -. a0) :: !alloc_l;
             encode_t := (t1 -. t0) :: !encode_t;
             solve_t := (t2 -. t1) :: !solve_t;
             steps_l := !steps :: !steps_l;
             atoms_l := List.length e.Holistic.Encode.atoms :: !atoms_l;
             leaves := (e, v) :: !leaves;
             incr n;
             !n < replay_prefix)));
  (!encode_t, !solve_t, !steps_l, !alloc_l, !atoms_l, List.rev !leaves)

(* Bigint micro-kernels on single-limb operands (below the 2^30 digit
   base): time per operation from Bechamel's OLS fit, allocation from
   the exact minor-word counter over a fixed loop.  After Bechamel has
   run, this process's heap grows far faster (one paper-seq pass peaked
   at 345 MB instead of 10 MB), so the traced run calls this last. *)
let numbers_probe () =
  let open Bechamel in
  let module B = Numbers.Bigint in
  let a = B.of_int 123_456_789 and b = B.of_int 98_765 in
  let ops =
    [
      ("add", fun () -> ignore (Sys.opaque_identity (B.add a b)));
      ("mul", fun () -> ignore (Sys.opaque_identity (B.mul a b)));
      ("divmod", fun () -> ignore (Sys.opaque_identity (B.divmod a b)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let clock = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let ns_per_op name f =
    let results = Benchmark.all cfg [ clock ] (Test.make ~name (Staged.stage f)) in
    Hashtbl.fold
      (fun _ o acc -> match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> acc)
      (Analyze.all ols clock results) nan
  in
  let words_per_op f =
    let n = 100_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  span "numbers.bechamel" (fun () ->
      List.map (fun (name, f) -> (name, ns_per_op name f, words_per_op f)) ops)

(* Progress on stderr: seconds since the start and the peak RSS so far. *)
let start = now ()

let phase name =
  Printf.eprintf "bench: %6.1f s  %-10s  VmHWM %.0f MB\n%!" (now () -. start) name (self_rss ())

let traced_run () =
  tracing := true;
  let m = ref [] in
  let add name value unit_ = m := metric name value unit_ :: !m in
  (* checker set-up layers *)
  phase "checker";
  let u = span "universe.build" (fun () -> Holistic.Universe.build simplified) in
  add "checker.universe_s"
    (median_time ~reps:9 (fun () ->
         span "universe.build" (fun () -> ignore (Holistic.Universe.build simplified))))
    "s";
  let t0 = now () in
  List.iter (fun op -> span "checker.precheck" (fun () -> C.precheck op.ta op.spec)) table2_ops;
  add "checker.precheck_s" (now () -. t0) "s";
  let t0 = now () in
  List.iter
    (fun op ->
      span "invariants.build" (fun () -> ignore (Analysis.Invariants.build ~spec:op.spec op.ta)))
    table2_ops;
  add "checker.invariants_s" (now () -. t0) "s";
  (* paper-seq: one traced pass *)
  phase "paper-seq";
  let results = traced_job "paper-seq" paper_seq_job in
  let stat f = sumi (fun (r : C.result) -> f r.C.stats) results in
  let of_spec name = List.filter (fun (r : C.result) -> r.C.spec.Ta.Spec.name = name) results in
  let time_of rs = sum (fun (r : C.result) -> r.C.stats.C.time) rs in
  let bv_names = List.map (fun (s : Ta.Spec.t) -> s.Ta.Spec.name) Models.Bv_ta.table2_specs in
  add "checker.verify_s.Inv1_0" (time_of (of_spec "Inv1_0")) "s";
  add "checker.verify_s.SRound-Term" (time_of (of_spec "SRound-Term")) "s";
  add "checker.verify_s.bv"
    (time_of (List.filter (fun (r : C.result) -> List.mem r.C.spec.Ta.Spec.name bv_names) results))
    "s";
  add "checker.verify_s.static" (time_of (List.concat_map of_spec [ "Inv2_0"; "Good_0"; "Dec_0" ])) "s";
  let schemas = stat (fun s -> s.C.schemas_checked) and skipped = stat (fun s -> s.C.schemas_skipped) in
  add "encode.s" (sum (fun (r : C.result) -> r.C.stats.C.encode_time) results) "s";
  add "lia.solve_s" (sum (fun (r : C.result) -> r.C.stats.C.solve_time) results) "s";
  add "lia.solver_steps" (float_of_int (stat (fun s -> s.C.solver_steps))) "count";
  add "walk.schemas" (float_of_int schemas) "count";
  add "walk.skipped" (float_of_int skipped) "count";
  add "walk.subtrees_pruned" (float_of_int (stat (fun s -> s.C.subtrees_pruned))) "count";
  add "walk.core_prunes" (float_of_int (stat (fun s -> s.C.core_prunes))) "count";
  add "walk.static_prunes" (float_of_int (stat (fun s -> s.C.static_prunes))) "count";
  add "walk.prefix_hits" (float_of_int (stat (fun s -> s.C.prefix_hits))) "count";
  add "walk.leaf_share" (float_of_int (schemas - skipped) /. float_of_int (max 1 schemas)) "ratio";
  let t0 = now () in
  List.iter
    (fun spec ->
      span "schema.count" (fun () -> ignore (Holistic.Schema.count u spec ~limit:prefix)))
    memo_specs;
  add "walk.enumerate_s" (now () -. t0) "s";
  (* lia: the flat replay, checked against the flat engine and set
     against the default engine on the same prefix *)
  phase "lia";
  let enc_t, solve_t, steps_l, alloc_l, atoms_l, leaves = lia_replay u in
  add "encode.leaf_us_p50" (p50 enc_t *. 1e6) "us";
  add "encode.atoms_per_leaf"
    (float_of_int (List.fold_left ( + ) 0 atoms_l) /. float_of_int (List.length atoms_l))
    "count";
  add "lia.leaves" (float_of_int (List.length leaves)) "count";
  add "lia.leaf_solve_ms_p50" (p50 solve_t *. 1e3) "ms";
  add "lia.leaf_solve_ms_p90" (p90 "lia.leaf_solve_ms" solve_t *. 1e3) "ms";
  add "lia.leaf_steps" (float_of_int (List.fold_left ( + ) 0 steps_l)) "count";
  add "lia.leaf_alloc_kwords_p50" (p50 alloc_l /. 1e3) "kwords";
  self_check "every replayed leaf is UNSAT" (List.for_all (fun (_, v) -> v = Smt.Lia.Unsat) leaves);
  let replay_limits = capped replay_prefix in
  let verify_replayed limits =
    gate ~name:(ref_name inv1_0 limits) (fun () ->
        span "checker.verify" (fun () -> C.verify_with_universe ~limits u inv1_0))
  in
  (match verify_replayed replay_limits with
  | Some r ->
    add "walk.reach_s_est" (r.C.stats.C.time -. r.C.stats.C.encode_time -. sum Fun.id solve_t) "s"
  | None -> self_check "default engine run" false);
  (match verify_replayed { replay_limits with incremental = false } with
  | Some flat ->
    self_check
      (Printf.sprintf "replayed leaf steps (%d) = flat engine steps (%d)"
         (List.fold_left ( + ) 0 steps_l) flat.C.stats.C.solver_steps)
      (List.fold_left ( + ) 0 steps_l = flat.C.stats.C.solver_steps)
  | None -> self_check "flat engine run" false);
  (* qcache + portfolio *)
  phase "qcache";
  let cold, save_t, saved = memo_prepare u in
  let cold_c =
    List.fold_left
      (fun acc (r : C.result) -> Smt.Portfolio.add_counters acc r.C.stats.C.cache)
      Smt.Portfolio.zero_counters cold
  in
  add "portfolio.cold_s" (time_of cold) "s";
  add "portfolio.wins_interval" (float_of_int cold_c.Smt.Portfolio.w_interval) "count";
  add "portfolio.wins_cooper" (float_of_int cold_c.Smt.Portfolio.w_cooper) "count";
  add "portfolio.wins_simplex" (float_of_int cold_c.Smt.Portfolio.w_simplex) "count";
  add "qcache.save_s" save_t "s";
  add "qcache.written" (float_of_int saved.Holistic.Cachefile.written) "count";
  let t0 = now () in
  let loaded = memo_load () in
  add "qcache.load_s" (now () -. t0) "s";
  add "qcache.loaded" (float_of_int loaded.Holistic.Cachefile.loaded) "count";
  add "qcache.dropped" (float_of_int loaded.Holistic.Cachefile.dropped) "count";
  let warm = span "job" (memo_job u loaded) in
  let wc =
    List.fold_left
      (fun acc (r : C.result) -> Smt.Portfolio.add_counters acc r.C.stats.C.cache)
      Smt.Portfolio.zero_counters warm
  in
  let hits = wc.Smt.Portfolio.hits and misses = wc.Smt.Portfolio.misses in
  let hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  add "qcache.hits" (float_of_int hits) "count";
  add "qcache.misses" (float_of_int misses) "count";
  add "qcache.hit_ratio" hit_ratio "ratio";
  add "qcache.cross" (float_of_int wc.Smt.Portfolio.cross) "count";
  let warm_steps = sumi (fun (r : C.result) -> r.C.stats.C.solver_steps) warm in
  self_check
    (Printf.sprintf "warm cache pass: hit ratio %g = 1 at 0 solver steps (%d)" hit_ratio warm_steps)
    (hits > 0 && misses = 0 && warm_steps = 0);
  let fp_t = ref [] and find_t = ref [] in
  List.iter
    (fun ((e : Holistic.Encode.encoded), _) ->
      let t0 = now () in
      let key, _ =
        span "qcache.fingerprint" (fun () -> Smt.Qcache.fingerprint e.Holistic.Encode.atoms)
      in
      let t1 = now () in
      ignore (span "qcache.find" (fun () -> Smt.Qcache.find loaded.Holistic.Cachefile.cache key));
      fp_t := (t1 -. t0) :: !fp_t;
      find_t := (now () -. t1) :: !find_t)
    leaves;
  add "qcache.fingerprint_us_p50" (p50 !fp_t *. 1e6) "us";
  add "qcache.find_us_p50" (p50 !find_t *. 1e6) "us";
  (* pool: the full N-core job *)
  phase "pool";
  (match span "job" paper_par_job with
  | Some r ->
    let ws = r.C.stats.C.workers in
    let busy = List.map (fun w -> w.C.busy_time) ws in
    let busy_max = List.fold_left Float.max 0. busy
    and busy_min = List.fold_left Float.min infinity busy in
    let worker_schemas = sumi (fun w -> w.C.schemas) ws in
    add "pool.busy_s_max" busy_max "s";
    add "pool.busy_s_min" busy_min "s";
    add "pool.imbalance" (busy_max /. (sum Fun.id busy /. float_of_int (List.length busy))) "ratio";
    add "pool.wasted_schemas" (float_of_int (worker_schemas - r.C.stats.C.schemas_checked)) "count";
    add "pool.busy_ms_per_schema" (sum Fun.id busy /. float_of_int (max 1 worker_schemas) *. 1e3) "ms";
    self_check
      (Printf.sprintf "pool worker schemas (%d) >= schemas checked (%d)" worker_schemas
         r.C.stats.C.schemas_checked)
      (worker_schemas >= r.C.stats.C.schemas_checked)
  | None -> self_check "full Inv1_0 job on the pool" false);
  (* daemon *)
  phase "daemon";
  let ref_row, ref_cpu = daemon_reference () in
  let cpu0 = cpu_reaped () in
  let d = span "daemon.spawn" (fun () -> spawn_daemon 0) in
  add "daemon.ready_s" d.ready "s";
  let batch_jobs = 4 in
  let w = new_watch () in
  let batch () =
    let left = ref batch_jobs and t0 = now () in
    let tick = if !tracing then sample d w else fun ~job:_ ~submitted:_ -> () in
    let jobs =
      run_jobs d ~ref_row ~tick
        ~more:(fun () ->
          decr left;
          !left >= 0)
        ()
    in
    (jobs, now () -. t0)
  in
  let jobs, wall = traced_job "daemon-batch" ~per:batch_jobs batch in
  let jobs_run = if workload = "daemon-batch" then 2 * batch_jobs else batch_jobs in
  let rss = List.fold_left (fun acc pid -> Float.max acc (peak_rss_mb pid)) 0. (worker_pids d) in
  stop_daemon d;
  let cpu_per_job = (cpu_reaped () -. cpu0) /. float_of_int jobs_run in
  let lat = List.map (fun j -> j.lat) jobs in
  add "daemon.job_p50_s" (p50 lat) "s";
  add "daemon.jobs_per_s" (float_of_int (List.length jobs) /. wall) "1/s";
  add "daemon.submit_rtt_ms_p50" (p50 (List.map (fun j -> j.rtt) jobs) *. 1e3) "ms";
  add "daemon.queue_wait_ms_p50" (p50 w.queue_wait *. 1e3) "ms";
  add "daemon.slice_ms_p50" (p50 w.slices *. 1e3) "ms";
  add "daemon.worker_idle_share"
    (if w.samples = 0 then 0. else float_of_int w.idle /. float_of_int w.samples)
    "ratio";
  add "daemon.cpu_per_job_s" cpu_per_job "s";
  add "daemon.overhead_ratio" (cpu_per_job /. ref_cpu) "ratio";
  add "daemon.worker_peak_rss_mb" rss "MB";
  (* numbers, last: see numbers_probe *)
  phase "numbers";
  let micro = numbers_probe () in
  List.iter (fun (name, ns, _) -> add (Printf.sprintf "numbers.%s_ns" name) ns "ns") micro;
  add "numbers.alloc_words_per_op"
    (sum (fun (_, _, w) -> w) micro /. float_of_int (List.length micro))
    "words";
  (* the trace itself *)
  phase "trace";
  add "trace.run_s" !trace_run_s "s";
  add "trace.overhead_s" !trace_overhead_s "s";
  tracing := false;
  let self = self_times () in
  Hashtbl.iter (fun name v -> add ("trace.self_s." ^ name) v "s") self;
  add "trace.spans" (float_of_int (List.length !spans)) "count";
  write_trace (Filename.concat "_perfbench" (Printf.sprintf "trace-%s.json" workload));
  List.sort (fun a b -> compare a.P.name b.P.name) !m

(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Every way out, an exception or a signal included, goes through
     [exit] and this hook. *)
  at_exit (fun () ->
      stop_live_daemons ();
      remove_tree work_dir);
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  mkdir_p work_dir;
  let metrics = if traced then traced_run () else timed () in
  List.iter (fun m -> Printf.printf "%-34s %16.6f %s\n" m.P.name m.P.value m.P.unit_) metrics;
  let s =
    {
      P.correct = !failed = 0 && !self_checks_ok;
      attempted = max 1 !attempted;
      failed = !failed;
      metrics;
    }
  in
  print_endline (P.to_string (P.summary_to_json s))
