(* The diagnostics, the protocol and the CLI reach JSON under this name;
   the one implementation sits below core, in the telemetry library. *)
include Flowtrace_telemetry.Json
