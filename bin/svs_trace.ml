(* Offline trace analyzer: merge per-node JSONL traces, reconstruct
   per-message lifecycle timelines, and report delivery latency,
   stability lag, purge effectiveness, view-change spans and anomalies.
   Optionally writes the summary as one flat JSON object
   (BENCH_rt_trace.json under MODE=trace scripts/bench_rt.sh). *)

open Cmdliner
module Span = Svs_telemetry.Span

let ppf = Format.std_formatter

let files_term =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"TRACE.jsonl"
        ~doc:"Per-node JSONL trace files (as written by $(b,svs_node --trace)).")

let timelines_term =
  Arg.(
    value & flag
    & info [ "timelines" ]
        ~doc:"Print one reconstructed lifecycle line per message before the summary.")

let json_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the summary as a flat JSON object to $(docv) (the \
           $(b,BENCH_rt_trace.json) payload). $(b,-) writes to stdout instead of \
           the human-readable report.")

let block_threshold_term =
  Arg.(
    value & opt float 5.0
    & info [ "block-threshold" ] ~docv:"SECONDS"
        ~doc:"Blocked spans longer than this are flagged as anomalies.")

let strict_term =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Exit non-zero if the analysis finds any anomaly.")

let run files show_timelines json_out block_threshold strict =
  (* Trace files from crashed or killed nodes routinely end in a torn
     line (and bit rot happens): skip what does not parse, loudly, and
     analyze the rest. *)
  let streams =
    List.map
      (fun file ->
        let records, bad = Span.load_file_counted file in
        if bad > 0 then
          Format.fprintf ppf "svs_trace: warning: %s: skipped %d corrupt line(s)@." file bad;
        (records, bad))
      files
  in
  let skipped = List.fold_left (fun acc (_, bad) -> acc + bad) 0 streams in
  let streams = List.map fst streams in
  if skipped > 0 then
    Format.fprintf ppf "svs_trace: warning: %d corrupt line(s) skipped in total@." skipped;
  let total = List.fold_left (fun acc s -> acc + List.length s) 0 streams in
  if total = 0 then begin
    Format.fprintf ppf "svs_trace: no trace records in %d file(s)@." (List.length files);
    exit 2
  end;
  if show_timelines then
    List.iter (fun tl -> Format.fprintf ppf "%a@." Span.pp_timeline tl) (Span.timelines streams);
  let report = Span.analyze ~block_threshold streams in
  (match json_out with
  | Some "-" -> print_endline (Span.report_to_json report)
  | Some file ->
      let oc = open_out file in
      output_string oc (Span.report_to_json report);
      output_char oc '\n';
      close_out oc;
      Format.fprintf ppf "%a@." Span.pp_report report;
      Format.fprintf ppf "wrote %s@." file
  | None -> Format.fprintf ppf "%a@." Span.pp_report report);
  if strict && report.Span.anomalies <> [] then exit 1

let cmd =
  let doc = "analyze SVS runtime traces into per-message timelines and latency stats" in
  Cmd.v
    (Cmd.info "svs_trace" ~doc)
    Term.(const run $ files_term $ timelines_term $ json_term $ block_threshold_term
          $ strict_term)

let () = exit (Cmd.eval cmd)
