(* Observability subsystem tests: the hand-rolled JSON layer, the trace
   ring buffer and its Chrome export, the Account drift guard that keeps
   [counters]/[all_fields] honest against the record's physical layout,
   and the end-to-end guarantees (tracing never perturbs a run; the
   profiler attributes hot cycles to named guest blocks). *)

module J = Obs.Metrics
module T = Obs.Trace
module P = Obs.Profile
module H = Obs.Hist
module S = Obs.Sample
module B = Workloads.Baselines
module E = Ia32el.Engine

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ---------------- JSON ---------------- *)

let test_json_round_trip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd");
        ("n", J.Int (-42));
        ("t", J.Bool true);
        ("z", J.Null);
        ("l", J.List [ J.Int 1; J.Str "x"; J.Obj [] ]);
        ("o", J.Obj [ ("inner", J.List []) ]);
      ]
  in
  (match J.parse (J.json_to_string v) with
  | Ok v' -> checkb "round trip" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  match J.parse (J.json_to_string ~pretty:false v) with
  | Ok v' -> checkb "compact round trip" true (v = v')
  | Error e -> Alcotest.failf "compact reparse failed: %s" e

let test_json_parse () =
  (match J.parse {| {"a": [1, 2.5, "A\n", false, null]} |} with
  | Ok (J.Obj [ ("a", J.List [ J.Int 1; J.Float f; J.Str s; J.Bool false; J.Null ]) ])
    ->
    checkb "float" true (abs_float (f -. 2.5) < 1e-9);
    check Alcotest.string "escape" "A\n" s
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match J.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match J.parse "[1, ]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing comma accepted"

let test_metrics_snapshot () =
  let m = J.make ~schema:"test/1" in
  J.section m "counters" [ ("a", J.Int 3); ("b", J.Int 0); ("c", J.Str "x") ];
  J.section m "cycles" [ ("total", J.Int 7) ];
  check
    Alcotest.(list (pair string int))
    "counters" [ ("a", 3); ("b", 0) ] (J.counters m);
  match J.parse (J.to_string m) with
  | Ok j ->
    (match J.member "schema" j with
    | Some (J.Str "test/1") -> ()
    | _ -> Alcotest.fail "schema lost");
    (match J.member "cycles" j with
    | Some (J.Obj [ ("total", J.Int 7) ]) -> ()
    | _ -> Alcotest.fail "cycles section lost")
  | Error e -> Alcotest.failf "snapshot JSON invalid: %s" e

(* Property: any JSON value the writer can emit reparses to an equal
   value, pretty or compact. Floats are generated finite (the writer has
   no representation for nan/inf) from a dyadic grid so text round-trips
   are exact. *)
let json_gen =
  let open QCheck.Gen in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Int n) (int_range (-1_000_000_000) 1_000_000_000);
        map (fun n -> J.Float (float_of_int n /. 16.0)) (int_range (-64000) 64000);
        map (fun s -> J.Str s) (string_size (int_range 0 12));
      ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then scalar
      else
        frequency
          [
            (3, scalar);
            ( 1,
              map (fun l -> J.List l)
                (list_size (int_range 0 4) (self (depth - 1))) );
            ( 1,
              map (fun l -> J.Obj l)
                (list_size (int_range 0 4)
                   (pair key (self (depth - 1)))) );
          ])
    3

let test_json_round_trip_prop () =
  let arb = QCheck.make ~print:J.json_to_string json_gen in
  let prop j =
    match (J.parse (J.json_to_string j), J.parse (J.json_to_string ~pretty:false j)) with
    | Ok a, Ok b -> a = j && b = j
    | _ -> false
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"json writer/parser round-trip" arb prop)

let test_metrics_hist_round_trip () =
  (* a metrics snapshot carrying a histogram section survives the
     writer->parser loop with all Int leaves intact *)
  let h = H.create () in
  List.iter (H.record h) [ 0; 1; 15; 16; 17; 100; 5000; 123456; 3 ];
  let m = J.make ~schema:"test/hist" in
  J.section m "hist" (H.set_to_json (let s = H.create_set () in
                                     List.iter (H.record s.H.syscall_latency)
                                       [ 2; 9; 300 ];
                                     s));
  J.section m "one" [ ("h", H.to_json h) ];
  match J.parse (J.to_string m) with
  | Error e -> Alcotest.failf "hist metrics JSON invalid: %s" e
  | Ok j -> (
    match J.member "one" j with
    | Some one -> (
      match J.member "h" one with
      | Some hj ->
        (match J.member "count" hj with
        | Some (J.Int 9) -> ()
        | _ -> Alcotest.fail "hist count lost in round trip");
        (match J.member "max" hj with
        | Some (J.Int 123456) -> ()
        | _ -> Alcotest.fail "hist max lost in round trip")
      | None -> Alcotest.fail "hist leaf lost")
    | None -> Alcotest.fail "hist section lost")

(* ---------------- histograms ---------------- *)

let test_hist_buckets () =
  (* exactness below 16, bounded relative error above, monotone indices *)
  for v = 0 to 15 do
    checki (Printf.sprintf "exact bucket %d" v) v (H.bucket_index v);
    checki (Printf.sprintf "exact lo %d" v) v (H.bucket_lo v)
  done;
  let check_v v =
    let i = H.bucket_index v in
    let lo = H.bucket_lo i in
    checkb (Printf.sprintf "lo <= v for %d" v) true (lo <= v);
    (* relative error bound: the bucket's span is lo/16 for v >= 16 *)
    if v >= 16 then
      checkb
        (Printf.sprintf "relative error bounded for %d (lo=%d)" v lo)
        true
        (v - lo <= lo / 16 + 1)
  in
  List.iter check_v
    [ 16; 17; 31; 32; 33; 255; 256; 1000; 4095; 4096; 65535; 1_000_000;
      (1 lsl 40) + 12345 ];
  (* indices are monotone in the value *)
  let prev = ref (-1) in
  for e = 0 to 30 do
    let v = 1 lsl e in
    let i = H.bucket_index v in
    checkb (Printf.sprintf "monotone at %d" v) true (i > !prev);
    prev := i
  done

let test_hist_percentiles () =
  let h = H.create () in
  checki "empty p50" 0 (H.percentile h 0.5);
  for v = 1 to 100 do
    H.record h v
  done;
  checki "count" 100 (H.count h);
  checki "sum" 5050 (H.sum h);
  checki "min" 1 (H.min_value h);
  checki "max" 100 (H.max_value h);
  (* percentile reports the covering bucket's lower bound: within one
     bucket (6%) of the true rank value *)
  let p50 = H.percentile h 0.5 and p99 = H.percentile h 0.99 in
  checkb "p50 sane" true (p50 >= 44 && p50 <= 50);
  checkb "p99 sane" true (p99 >= 92 && p99 <= 99);
  checkb "p99 >= p50" true (p99 >= p50);
  (* negatives clamp, huge values land in the last bucket without error *)
  H.record h (-5);
  checki "negative clamps to 0" 0 (H.min_value h);
  H.record h max_int;
  checki "max_int recorded" max_int (H.max_value h);
  H.clear h;
  checki "clear resets" 0 (H.count h)

(* ---------------- sampler ---------------- *)

let test_sample_symbols () =
  let s =
    S.create ~interval:100
      ~labels:[ ("main", 0x1000); ("helper", 0x2000); ("tail", 0x3000) ]
  in
  S.record s ~now:100 ~tid:0 ~eip:0x1010 ~entry:0x1000 ~phase:"hot"
    ~degraded:false;
  S.record s ~now:300 ~tid:0 ~eip:0x2004 ~entry:0x2000 ~phase:"cold"
    ~degraded:true;
  (* now=300 crosses boundaries 200 and 300: weight 2 *)
  checki "samples" 3 (S.samples s);
  checki "entry share main" 1 (S.entry_samples s 0x1000);
  checki "entry share helper" 2 (S.entry_samples s 0x2000);
  let folded = S.folded s in
  checkb "main attributed" true
    (String.length folded > 0
    && String.sub folded 0 (String.length "t0;")
       = "t0;");
  checkb "degraded tagged" true
    (let re = "t0;helper;cold;degraded 2" in
     let rec contains i =
       i + String.length re <= String.length folded
       && (String.sub folded i (String.length re) = re || contains (i + 1))
     in
     contains 0);
  (* below the first label, or far past the last: page-bucketed *)
  S.record s ~now:400 ~tid:1 ~eip:0x500 ~entry:0x500 ~phase:"interp"
    ~degraded:false;
  S.record s ~now:500 ~tid:1 ~eip:(0x3000 + 0x20000) ~entry:0 ~phase:"runtime"
    ~degraded:false;
  checkb "page fallback" true
    (let f = S.folded s in
     let has sub =
       let rec go i =
         i + String.length sub <= String.length f
         && (String.sub f i (String.length sub) = sub || go (i + 1))
       in
       go 0
     in
     has "t1;0x0;interp" && has "t1;0x23000;runtime")

(* ---------------- trace ring ---------------- *)

let test_ring_wrap () =
  let tr = T.create ~capacity:8 () in
  let clock = ref 0 in
  T.set_clock tr (fun () ->
      incr clock;
      !clock);
  for i = 0 to 19 do
    T.emit tr (T.Dispatch { eip = i })
  done;
  checki "capacity" 8 (T.capacity tr);
  checki "length" 8 (T.length tr);
  checki "dropped" 12 (T.dropped tr);
  let evs = T.events tr in
  checki "retained" 8 (List.length evs);
  List.iteri
    (fun i (e : T.event) ->
      match e.T.ev with
      | T.Dispatch { eip } ->
        checki "oldest-first eip" (12 + i) eip;
        checki "clock stamp" (13 + i) e.T.at
      | _ -> Alcotest.fail "wrong event")
    evs

let test_echo_hook () =
  let tr = T.create ~capacity:4 () in
  let seen = ref 0 in
  T.set_echo tr (fun _ -> incr seen);
  T.emit tr (T.Heat_trigger { entry = 0x1000; registered = 1 });
  T.emit tr (T.Tcache_evict { bundles = 9 });
  checki "echo called per emit" 2 !seen

let test_chrome_export () =
  let tr = T.create ~capacity:16 () in
  let clock = ref 0 in
  T.set_clock tr (fun () ->
      clock := !clock + 100;
      !clock);
  T.emit tr (T.Dispatch { eip = 0x8048000 });
  T.emit tr
    (T.Trans_end { phase = T.Cold; entry = 0x8048000; insns = 5; cycles = 60 });
  T.emit tr (T.Syscall_enter { name = "write" });
  T.emit tr
    (T.Syscall_exit { name = "write"; kernel_cycles = 40; idle_cycles = 0 });
  (* a name that needs every kind of JSON escape *)
  let odd = "q\"b\\n\nc\x01" in
  T.emit tr (T.Syscall_enter { name = odd });
  let s = Buffer.contents (T.to_chrome tr) in
  match J.parse s with
  | Ok (J.List evs) ->
    let meta, events =
      List.partition (fun e -> J.member "ph" e = Some (J.Str "M")) evs
    in
    checki "event count" 5 (List.length events);
    checkb "escaped name round-trips" true
      (List.exists
         (fun e ->
           match J.member "args" e with
           | Some args -> J.member "call" args = Some (J.Str odd)
           | None -> false)
         events);
    (* the parser also takes raw control bytes: pin the escaped form *)
    let escaped = {|"call":"q\"b\\n\nc\u0001"|} in
    checkb "name escaped in the export" true
      (let n = String.length escaped in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = escaped || go (i + 1))
       in
       go 0);
    (* leading metadata: process_name plus one thread_name per tid *)
    checki "metadata records" 2 (List.length meta);
    checkb "process_name present" true
      (List.exists (fun e -> J.member "name" e = Some (J.Str "process_name"))
         meta);
    checkb "thread_name present" true
      (List.exists (fun e -> J.member "name" e = Some (J.Str "thread_name"))
         meta);
    List.iter
      (fun e ->
        match J.member "args" e with
        | Some args -> (
          match J.member "name" args with
          | Some (J.Str _) -> ()
          | _ -> Alcotest.fail "metadata args.name missing")
        | None -> Alcotest.fail "metadata without args")
      meta;
    let spans =
      List.filter (fun e -> J.member "ph" e = Some (J.Str "X")) events
    in
    checki "span events" 2 (List.length spans);
    List.iter
      (fun e ->
        (match J.member "dur" e with
        | Some (J.Int d) -> checkb "positive dur" true (d > 0)
        | _ -> Alcotest.fail "span without dur");
        match (J.member "ts" e, J.member "name" e) with
        | Some (J.Int ts), Some (J.Str _) -> checkb "ts >= 0" true (ts >= 0)
        | _ -> Alcotest.fail "span missing ts/name")
      spans
  | Ok _ -> Alcotest.fail "chrome export is not an array"
  | Error e -> Alcotest.failf "chrome export invalid: %s" e

(* ---------------- Account drift guard ---------------- *)

(* [Account.t] is all-int, so its heap block has one word per field.
   Write a distinctive value into every word through [Obj] and require
   [all_fields] to read back exactly those values in order: any field
   added to the record without being added to [all_fields] (and so
   invisible to metrics and fuzzer coverage) trips the size check; any
   reordering or duplication trips the value check. *)
let test_all_fields_complete () =
  let a = Ia32el.Account.create () in
  let fields = Ia32el.Account.all_fields a in
  let r = Obj.repr a in
  checkb "flat int record" true (Obj.tag r = 0);
  checki "all_fields covers every record field" (Obj.size r)
    (List.length fields);
  for k = 0 to Obj.size r - 1 do
    Obj.set_field r k (Obj.repr ((1000 * k) + 7))
  done;
  List.iteri
    (fun k (name, v) ->
      checki (Printf.sprintf "field %s in declaration order" name)
        ((1000 * k) + 7)
        v)
    (Ia32el.Account.all_fields a)

let test_counters_partition () =
  let a = Ia32el.Account.create () in
  let all = List.map fst (Ia32el.Account.all_fields a) in
  let counters = List.map fst (Ia32el.Account.counters a) in
  let non_event = Ia32el.Account.non_event_fields in
  let sorted l = List.sort compare l in
  List.iter
    (fun n ->
      checkb (Printf.sprintf "counter %s is a real field" n) true
        (List.mem n all))
    counters;
  List.iter
    (fun n ->
      checkb (Printf.sprintf "non-event %s is a real field" n) true
        (List.mem n all);
      checkb (Printf.sprintf "non-event %s not double-counted" n) false
        (List.mem n counters))
    non_event;
  check
    Alcotest.(list string)
    "counters + non_event partition all fields" (sorted all)
    (sorted (counters @ non_event))

(* ---------------- end-to-end guarantees ---------------- *)

let run_gzip ?attach () =
  let r = B.run_el ?attach Workloads.Spec_int.gzip ~scale:1 in
  match r.B.engine with
  | Some e -> (r.B.cycles, e)
  | None -> Alcotest.fail "no engine"

let test_tracing_is_free () =
  let plain_cycles, plain_eng = run_gzip () in
  let tr = T.create () in
  let p = P.create () in
  let traced_cycles, traced_eng =
    run_gzip
      ~attach:(fun e ->
        E.attach_trace e tr;
        E.attach_profile e p)
      ()
  in
  checki "cycles identical with observability" plain_cycles traced_cycles;
  check
    Alcotest.(list (pair string int))
    "counters identical with observability"
    (Ia32el.Account.counters plain_eng.E.acct)
    (Ia32el.Account.counters traced_eng.E.acct);
  checkb "trace saw events" true (T.length tr > 0)

let test_profile_attribution () =
  let p = P.create () in
  let _, eng = run_gzip ~attach:(fun e -> E.attach_profile e p) () in
  let m = eng.E.machine in
  let hot_bucket = m.Ipf.Machine.buckets.(Ia32el.Account.bucket_hot) in
  let cold_bucket = m.Ipf.Machine.buckets.(Ia32el.Account.bucket_cold) in
  checkb "gzip runs hot code" true (hot_bucket > 0);
  (* the probe mirrors the bucket charges exactly, so totals must match 1:1 *)
  checki "hot attribution exact" hot_bucket (P.hot_exec p);
  checki "cold attribution exact" cold_bucket (P.cold_exec p);
  (* acceptance criterion: top 10 blocks own >= 90% of hot-phase cycles *)
  let top_hot =
    List.fold_left
      (fun acc (_, (row : P.row)) -> acc + row.P.hot_cycles)
      0 (P.top 10 p)
  in
  checkb "top-10 owns >= 90% of hot cycles" true
    (top_hot * 10 >= hot_bucket * 9);
  (* every top entry must resolve to a guest block start *)
  let image =
    Workloads.Spec_int.gzip.Workloads.Common.build ~scale:1 ~wide:false
  in
  List.iter
    (fun (entry, _) ->
      checkb
        (Printf.sprintf "entry 0x%x within guest code" entry)
        true
        (entry >= image.Ia32.Asm.entry - 0x100000
        && entry < image.Ia32.Asm.entry + 0x1000000))
    (P.top 10 p)

let test_engine_metrics_shape () =
  let tr = T.create () in
  let p = P.create () in
  let _, eng =
    run_gzip
      ~attach:(fun e ->
        E.attach_trace e tr;
        E.attach_profile e p)
      ()
  in
  let m = E.metrics eng in
  match J.parse (J.to_string m) with
  | Error e -> Alcotest.failf "metrics JSON invalid: %s" e
  | Ok j ->
    List.iter
      (fun s ->
        match J.member s j with
        | Some (J.Obj _) -> ()
        | _ -> Alcotest.failf "missing section %s" s)
      [
        "cycles"; "counters"; "volume"; "machine"; "tcache"; "dcache"; "vos";
        "trace"; "profile";
      ];
    (match J.member "cycles" j with
    | Some c -> (
      match J.member "total" c with
      | Some (J.Int n) -> checkb "cycles.total > 0" true (n > 0)
      | _ -> Alcotest.fail "no cycles.total")
    | None -> assert false);
    check
      Alcotest.(list (pair string int))
      "metrics counters mirror Account.counters"
      (Ia32el.Account.counters eng.E.acct)
      (J.counters m)

(* Acceptance criterion: attaching the sampler (and the histogram set)
   must leave every deterministic observable bit-identical — cycles and
   all Account counters — under both first phases. And because sampling
   is driven by the virtual clock, two
   sampled runs of the same config produce byte-identical folded
   flamegraph output. *)
let test_sampler_is_free () =
  let gzip = Workloads.Spec_int.gzip in
  let image = gzip.Workloads.Common.build ~scale:1 ~wide:false in
  let labels = image.Ia32.Asm.labels in
  let sampled_run config =
    let s = S.create ~interval:4096 ~labels in
    let r =
      B.run_el ~config
        ~attach:(fun e ->
          E.attach_sample e s;
          E.attach_hists e (H.create_set ()))
        gzip ~scale:1
    in
    let eng = match r.B.engine with Some e -> e | None -> assert false in
    (r.B.cycles, Ia32el.Account.counters eng.E.acct, s)
  in
  List.iter
    (fun (tag, config) ->
      let plain = B.run_el ~config gzip ~scale:1 in
      let plain_eng =
        match plain.B.engine with Some e -> e | None -> assert false
      in
      let cycles, counters, s = sampled_run config in
      checki (tag ^ ": cycles bit-identical") plain.B.cycles cycles;
      check
        Alcotest.(list (pair string int))
        (tag ^ ": counters bit-identical")
        (Ia32el.Account.counters plain_eng.E.acct)
        counters;
      checkb (tag ^ ": sampler saw samples") true (S.samples s > 0))
    [
      ("default", Ia32el.Config.default);
      ( "interpret-first",
        {
          Ia32el.Config.default with
          Ia32el.Config.first_phase = Ia32el.Config.Interpret_first;
        } );
    ];
  (* determinism of the artifact itself: two sampled runs, same bytes *)
  let _, _, s1 = sampled_run Ia32el.Config.default in
  let _, _, s2 = sampled_run Ia32el.Config.default in
  check Alcotest.string "folded output byte-identical across runs"
    (S.folded s1) (S.folded s2)

let test_metrics_v2_sections () =
  (* with sampler + hists + timers attached, the /2 snapshot carries the
     new sections; detached it must not (CI byte-compares cold/warm
     metrics files produced without the new flags) *)
  let gzip = Workloads.Spec_int.gzip in
  let image = gzip.Workloads.Common.build ~scale:1 ~wide:false in
  let s = S.create ~interval:4096 ~labels:image.Ia32.Asm.labels in
  let _, eng =
    run_gzip
      ~attach:(fun e ->
        E.attach_sample e s;
        E.attach_hists e (H.create_set ());
        E.attach_timers e (Obs.Timers.create ()))
      ()
  in
  (match J.parse (J.to_string (E.metrics eng)) with
  | Error e -> Alcotest.failf "metrics JSON invalid: %s" e
  | Ok j ->
    (match J.member "schema" j with
    | Some (J.Str "ia32el-metrics/2") -> ()
    | _ -> Alcotest.fail "schema is not ia32el-metrics/2");
    List.iter
      (fun sec ->
        match J.member sec j with
        | Some (J.Obj _) -> ()
        | _ -> Alcotest.failf "attached run missing section %s" sec)
      [ "hist"; "sample"; "host_timers" ]);
  let _, plain_eng = run_gzip () in
  match J.parse (J.to_string (E.metrics plain_eng)) with
  | Error e -> Alcotest.failf "metrics JSON invalid: %s" e
  | Ok j ->
    List.iter
      (fun sec ->
        if J.member sec j <> None then
          Alcotest.failf "detached run leaks section %s" sec)
      [ "hist"; "sample"; "host_timers" ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "round-trip-property" `Quick
            test_json_round_trip_prop;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "snapshot" `Quick test_metrics_snapshot;
          Alcotest.test_case "hist-round-trip" `Quick
            test_metrics_hist_round_trip;
        ] );
      ( "hist",
        [
          Alcotest.test_case "buckets" `Quick test_hist_buckets;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
        ] );
      ( "sample",
        [ Alcotest.test_case "symbols-folded" `Quick test_sample_symbols ] );
      ( "trace",
        [
          Alcotest.test_case "ring-wrap" `Quick test_ring_wrap;
          Alcotest.test_case "echo-hook" `Quick test_echo_hook;
          Alcotest.test_case "chrome-export" `Quick test_chrome_export;
        ] );
      ( "drift-guard",
        [
          Alcotest.test_case "all-fields-complete" `Quick
            test_all_fields_complete;
          Alcotest.test_case "counters-partition" `Quick
            test_counters_partition;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "tracing-is-free" `Quick test_tracing_is_free;
          Alcotest.test_case "profile-attribution" `Quick
            test_profile_attribution;
          Alcotest.test_case "engine-metrics-shape" `Quick
            test_engine_metrics_shape;
          Alcotest.test_case "sampler-is-free" `Quick test_sampler_is_free;
          Alcotest.test_case "metrics-v2-sections" `Quick
            test_metrics_v2_sections;
        ] );
    ]
