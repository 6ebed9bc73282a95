// Package corpus implements the document collection substrate: the
// ImageCLEF 2011 XML metadata schema the paper works with (its Figure 2),
// a streaming parser and writer, the relevant-text extraction rule of
// Section 2.1, and an in-memory collection with dense document IDs.
package corpus

import (
	"path"
	"strings"
)

// Image is one ImageCLEF metadata record. The XML layout follows the
// paper's Figure 2: an <image> element with a file name, per-language
// <text> sections (description, comment, captions), a general wiki-template
// <comment> and a <license>.
type Image struct {
	ID      string `xml:"id,attr" json:"id,omitempty"`
	File    string `xml:"file,attr" json:"file,omitempty"`
	Name    string `xml:"name" json:"name,omitempty"`
	Texts   []Text `xml:"text" json:"texts,omitempty"`
	Comment string `xml:"comment" json:"comment,omitempty"`
	License string `xml:"license" json:"license,omitempty"`
}

// Text is one per-language metadata section.
type Text struct {
	Lang        string    `xml:"lang,attr" json:"lang,omitempty"`
	Description string    `xml:"description" json:"description,omitempty"`
	Comment     string    `xml:"comment" json:"comment,omitempty"`
	Captions    []Caption `xml:"caption" json:"captions,omitempty"`
}

// Caption is a caption linked to the article it was extracted from.
type Caption struct {
	Article string `xml:"article,attr" json:"article,omitempty"`
	Value   string `xml:",chardata" json:"value"`
}

// EnglishText returns the English-language section, if present.
func (im *Image) EnglishText() (Text, bool) {
	for _, t := range im.Texts {
		if strings.EqualFold(t.Lang, "en") {
			return t, true
		}
	}
	return Text{}, false
}

// RelevantText implements the extraction step of the paper's Section 2.1
// (the circled items of Figure 2): it combines
//
//  1. the file name without its extension,
//  2. the information in the English section (description, section comment
//     and captions), and
//  3. the Description field of the general wiki-template comment,
//
// into a single string on which entity linking is performed.
func (im *Image) RelevantText() string {
	var parts []string
	if name := strings.TrimSpace(strings.TrimSuffix(im.Name, path.Ext(im.Name))); name != "" {
		parts = append(parts, name)
	}
	if en, ok := im.EnglishText(); ok {
		if d := strings.TrimSpace(en.Description); d != "" {
			parts = append(parts, d)
		}
		if c := strings.TrimSpace(en.Comment); c != "" {
			parts = append(parts, c)
		}
		for _, cap := range en.Captions {
			if v := strings.TrimSpace(cap.Value); v != "" {
				parts = append(parts, v)
			}
		}
	}
	if d := TemplateField(im.Comment, "Description"); d != "" {
		parts = append(parts, d)
	}
	return strings.Join(parts, " . ")
}

// TemplateField extracts a named field from a MediaWiki-style template
// string such as
//
//	({{Information |Description= Flowers in Belgium |Source= Flickr ...}})
//
// It returns the trimmed value of the first occurrence of "|<name>=", up to
// the next '|' or closing braces, or "" when absent.
func TemplateField(comment, name string) string {
	lower := strings.ToLower(comment)
	needle := "|" + strings.ToLower(name)
	idx := strings.Index(lower, needle)
	for idx >= 0 {
		rest := comment[idx+len(needle):]
		trimmed := strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(trimmed, "=") {
			val := trimmed[1:]
			if end := strings.IndexAny(val, "|}"); end >= 0 {
				val = val[:end]
			}
			return strings.TrimSpace(val)
		}
		next := strings.Index(lower[idx+1:], needle)
		if next < 0 {
			break
		}
		idx += 1 + next
	}
	return ""
}
